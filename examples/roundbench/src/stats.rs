//! The benchmark's own arithmetic: medians, the tail-percentile rule, the
//! quartile spread the acceptance rule uses, and the FNV-1a result digest.
//! Everything here is pure and covered by `--selftest`.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest whole percentile that still has at least ten samples beyond
/// it, with its nearest-rank value: 199 samples give p94, 20 samples give
/// p50, and fewer than 20 give `None` (a "tail" below the median is not a
/// tail).
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < 20 {
        return None;
    }
    let pct = 100 * (n - 10) / n;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct * n).div_ceil(100).max(1);
    Some((pct as u32, v[rank - 1]))
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method); `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        // Signed: clamping `j` can push `delta` outside 0..4, which is how
        // the exclusive method extrapolates on very short inputs.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance rule compares with a metric's bound.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// FNV-1a 64 over little-endian words.
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
