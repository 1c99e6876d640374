//! Column statistics: means and higher-order central moments.
//!
//! These are the primitives of Algorithm 1 in the paper — each client
//! computes per-column (i.e. per-hidden-unit) means of its layer activations
//! (line 4) and central moments of orders 2..=5 about a given centre
//! (lines 5-7 and 12-13). Both the "centre = local mean" and
//! "centre = global mean" variants reduce to [`central_moments`] with a
//! different `center` argument.

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Per-column means, `E(Z)` in the paper (a length-`cols` vector).
pub fn column_means(z: &Matrix) -> Vec<f32> {
    let (rows, cols) = z.shape();
    if rows == 0 {
        return vec![0.0; cols];
    }
    let mut acc = vec![0.0f64; cols];
    for row in z.as_slice().chunks(cols) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v as f64;
        }
    }
    acc.into_iter().map(|a| (a / rows as f64) as f32).collect()
}

/// Per-column `j`-th central moment about `center`:
/// `(1/n) Σ_m (Z(m) − center)^j`, one value per column.
///
/// # Panics
/// Panics when `center.len() != z.cols()` or `order == 0`.
pub fn central_moments(z: &Matrix, center: &[f32], order: u32) -> Vec<f32> {
    assert_eq!(
        center.len(),
        z.cols(),
        "central_moments: center length mismatch"
    );
    assert!(order >= 1, "central_moments: order must be >= 1");
    let (rows, cols) = z.shape();
    if rows == 0 {
        return vec![0.0; cols];
    }
    let mut acc = vec![0.0f64; cols];
    for row in z.as_slice().chunks(cols) {
        for ((a, &v), &c) in acc.iter_mut().zip(row).zip(center) {
            *a += powi_f64((v - c) as f64, order);
        }
    }
    acc.into_iter().map(|a| (a / rows as f64) as f32).collect()
}

/// Column-block width of the fused moment sweep. 64 f32 columns = 4
/// cache lines of data per row touch, and the per-order accumulator
/// arrays (`[f64; COL_BLOCK]` each) stay comfortably in L1.
const COL_BLOCK: usize = 64;

/// One fused sweep over `rows × width` elements of a column block,
/// accumulating all `ORDERS` central-moment powers at once: per element
/// `d = (v − c) as f64`, then the left-associated power chain
/// `d², d³, …` feeds one f64 accumulator per order. Rows are visited in
/// ascending order, so for any single order the per-element operation
/// sequence is exactly the per-order reference kernel's
/// (`central_moments`' `powi_f64` chain) — bit-identical by
/// construction, pinned by `prop_fused_sweep_is_bit_identical_*`.
///
/// `ORDERS` is a compile-time constant so the inner loop fully unrolls;
/// `out` receives `ORDERS` runs of `width` f64 sums (not yet divided by
/// `rows`).
#[inline(always)]
fn moment_sweep_body<const ORDERS: usize>(
    data: &[f32],
    rows: usize,
    cols: usize,
    center: &[f32],
    c0: usize,
    width: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; COL_BLOCK]; ORDERS];
    for r in 0..rows {
        let row = &data[r * cols + c0..r * cols + c0 + width];
        let ctr = &center[c0..c0 + width];
        for i in 0..width {
            let d = (row[i] - ctr[i]) as f64;
            let mut p = d * d;
            acc[0][i] += p;
            for acc_ord in acc.iter_mut().skip(1) {
                p *= d;
                acc_ord[i] += p;
            }
        }
    }
    for (ord, acc_row) in acc.iter().enumerate() {
        out[ord * width..(ord + 1) * width].copy_from_slice(&acc_row[..width]);
    }
}

/// Baseline-ISA instantiation of the fused sweep.
fn moment_sweep_generic<const ORDERS: usize>(
    data: &[f32],
    rows: usize,
    cols: usize,
    center: &[f32],
    c0: usize,
    width: usize,
    out: &mut [f64],
) {
    moment_sweep_body::<ORDERS>(data, rows, cols, center, c0, width, out);
}

/// AVX2 instantiation: identical Rust code, wider auto-vectorisation.
/// The chain is plain lane-wise IEEE mul/add without contraction, so it
/// stays bit-identical to [`moment_sweep_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn moment_sweep_avx2<const ORDERS: usize>(
    data: &[f32],
    rows: usize,
    cols: usize,
    center: &[f32],
    c0: usize,
    width: usize,
    out: &mut [f64],
) {
    moment_sweep_body::<ORDERS>(data, rows, cols, center, c0, width, out);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code, reason = "AVX2 dispatch after runtime detection")]
fn run_moment_sweep<const ORDERS: usize>(
    avx2: bool,
    data: &[f32],
    rows: usize,
    cols: usize,
    center: &[f32],
    c0: usize,
    width: usize,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when `is_x86_feature_detected!`
        // confirmed support in `central_moments_upto`.
        unsafe { moment_sweep_avx2::<ORDERS>(data, rows, cols, center, c0, width, out) };
        return;
    }
    let _ = avx2;
    moment_sweep_generic::<ORDERS>(data, rows, cols, center, c0, width, out);
}

/// Dispatches the runtime order count to a monomorphised sweep (1..=5
/// covers the paper's `max_order ∈ 2..=6`); higher counts fall back to a
/// dynamically-sized accumulator with the identical per-element chain.
#[allow(clippy::too_many_arguments)]
fn moment_sweep_dyn(
    avx2: bool,
    orders: usize,
    data: &[f32],
    rows: usize,
    cols: usize,
    center: &[f32],
    c0: usize,
    width: usize,
    out: &mut [f64],
) {
    match orders {
        1 => run_moment_sweep::<1>(avx2, data, rows, cols, center, c0, width, out),
        2 => run_moment_sweep::<2>(avx2, data, rows, cols, center, c0, width, out),
        3 => run_moment_sweep::<3>(avx2, data, rows, cols, center, c0, width, out),
        4 => run_moment_sweep::<4>(avx2, data, rows, cols, center, c0, width, out),
        5 => run_moment_sweep::<5>(avx2, data, rows, cols, center, c0, width, out),
        _ => {
            // Unbounded-order fallback: same chain, heap accumulators.
            let mut acc = vec![vec![0.0f64; width]; orders];
            for r in 0..rows {
                let row = &data[r * cols + c0..r * cols + c0 + width];
                for (i, (&v, &c)) in row.iter().zip(&center[c0..c0 + width]).enumerate() {
                    let d = (v - c) as f64;
                    let mut p = d * d;
                    acc[0][i] += p;
                    for slot in acc.iter_mut().skip(1) {
                        p *= d;
                        slot[i] += p;
                    }
                }
            }
            for (ord, vals) in acc.into_iter().enumerate() {
                out[ord * width..(ord + 1) * width].copy_from_slice(&vals);
            }
        }
    }
}

/// All central moments of orders `2..=max_order` about `center`, computed in
/// a single fused pass over the data. Returns `moments[j-2]` = order-`j`
/// vector (empty when `max_order == 1`).
///
/// This is the hot path of the FedOMD round (orders 2..=5 for every hidden
/// layer), so the pass is parallelised over column blocks and dispatched to
/// an AVX2 instantiation when the CPU supports it (bit-identical — see
/// [`moment_sweep_avx2`]).
pub fn central_moments_upto(z: &Matrix, center: &[f32], max_order: u32) -> Vec<Vec<f32>> {
    assert!(
        max_order >= 1,
        "central_moments_upto: max_order must be >= 1"
    );
    assert_eq!(
        center.len(),
        z.cols(),
        "central_moments_upto: center length mismatch"
    );
    let (rows, cols) = z.shape();
    let orders = (max_order - 1) as usize;
    if orders == 0 {
        return Vec::new();
    }
    if rows == 0 {
        return vec![vec![0.0; cols]; orders];
    }
    let data = z.as_slice();
    let n_blocks = cols.div_ceil(COL_BLOCK);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;

    let per_block: Vec<Vec<f64>> = (0..n_blocks)
        .into_par_iter()
        .map(|blk| {
            let c0 = blk * COL_BLOCK;
            let width = (c0 + COL_BLOCK).min(cols) - c0;
            let mut sums = vec![0.0f64; orders * width];
            moment_sweep_dyn(avx2, orders, data, rows, cols, center, c0, width, &mut sums);
            sums
        })
        .collect();

    let mut out = vec![vec![0.0f32; cols]; orders];
    for (blk, sums) in per_block.into_iter().enumerate() {
        let c0 = blk * COL_BLOCK;
        let width = (c0 + COL_BLOCK).min(cols) - c0;
        for (ord, vals) in sums.chunks(width).enumerate() {
            for (i, &v) in vals.iter().enumerate() {
                out[ord][c0 + i] = (v / rows as f64) as f32;
            }
        }
    }
    out
}

/// Per-column variance (the order-2 central moment about the column mean).
pub fn column_variances(z: &Matrix) -> Vec<f32> {
    let means = column_means(z);
    central_moments(z, &means, 2)
}

/// Euclidean norm of the difference between two equal-length vectors.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_distance: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = (*x - *y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt() as f32
}

#[inline]
fn powi_f64(base: f64, exp: u32) -> f64 {
    let mut out = 1.0;
    for _ in 0..exp {
        out *= base;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn means_of_constant_matrix() {
        let z = Matrix::full(5, 3, 2.5);
        assert_eq!(column_means(&z), vec![2.5, 2.5, 2.5]);
    }

    #[test]
    fn means_match_hand_computation() {
        let z = Matrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 20.0]);
        assert_eq!(column_means(&z), vec![2.0, 15.0]);
    }

    #[test]
    fn first_central_moment_about_mean_is_zero() {
        let z = Matrix::from_vec(4, 2, vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 4.0, 8.0]);
        let means = column_means(&z);
        let m1 = central_moments(&z, &means, 1);
        assert!(m1.iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn variance_of_known_data() {
        // Column [1,2,3,4]: mean 2.5, population variance 1.25.
        let z = Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let var = column_variances(&z);
        assert!((var[0] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn odd_moments_of_symmetric_data_vanish() {
        let z = Matrix::from_vec(4, 1, vec![-2.0, -1.0, 1.0, 2.0]);
        let m3 = central_moments(&z, &[0.0], 3);
        let m5 = central_moments(&z, &[0.0], 5);
        assert!(m3[0].abs() < 1e-6);
        assert!(m5[0].abs() < 1e-6);
    }

    #[test]
    fn upto_matches_individual_orders() {
        let z = Matrix::from_fn(37, 130, |r, c| ((r * 7 + c * 13) % 11) as f32 / 11.0 - 0.5);
        let means = column_means(&z);
        let all = central_moments_upto(&z, &means, 5);
        for (idx, order) in (2u32..=5).enumerate() {
            let single = central_moments(&z, &means, order);
            for (a, b) in all[idx].iter().zip(&single) {
                assert!((a - b).abs() < 1e-5, "order {order}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn empty_matrix_yields_zeros() {
        let z = Matrix::zeros(0, 3);
        assert_eq!(column_means(&z), vec![0.0; 3]);
        assert_eq!(central_moments(&z, &[0.0; 3], 2), vec![0.0; 3]);
    }

    #[test]
    fn upto_of_empty_matrix_yields_zero_vectors_per_order() {
        let z = Matrix::zeros(0, 3);
        let all = central_moments_upto(&z, &[0.0; 3], 5);
        assert_eq!(all, vec![vec![0.0; 3]; 4]);
    }

    #[test]
    fn l2_distance_basic() {
        assert_eq!(l2_distance(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
        assert_eq!(l2_distance(&[1.0], &[1.0]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_weighted_mean_decomposition(
            rows_a in 1usize..20, rows_b in 1usize..20, cols in 1usize..8, seed in 0u64..500
        ) {
            // Pooled mean == weighted combination of group means — the exact
            // identity Eq. 10 of the paper relies on.
            let gen = |rows: usize, salt: u64| {
                Matrix::from_fn(rows, cols, |r, c| {
                    let h = (r as u64 + 31 * c as u64 + 1009 * (seed + salt)) % 997;
                    h as f32 / 997.0 - 0.5
                })
            };
            let a = gen(rows_a, 0);
            let b = gen(rows_b, 1);
            let mut pooled = Vec::with_capacity((rows_a + rows_b) * cols);
            pooled.extend_from_slice(a.as_slice());
            pooled.extend_from_slice(b.as_slice());
            let pooled = Matrix::from_vec(rows_a + rows_b, cols, pooled);

            let ma = column_means(&a);
            let mb = column_means(&b);
            let mp = column_means(&pooled);
            let (na, nb) = (rows_a as f32, rows_b as f32);
            for c in 0..cols {
                let weighted = (na * ma[c] + nb * mb[c]) / (na + nb);
                prop_assert!((weighted - mp[c]).abs() < 1e-5);
            }
        }

        #[test]
        fn prop_upto_is_bit_identical_to_individual_orders(
            rows in 0usize..40, cols in 1usize..200, max_order in 1u32..=6, seed in 0u64..500
        ) {
            // The fused single-pass kernel (monomorphised + AVX2-dispatched)
            // and the order-by-order reference share the same accumulation
            // structure (rows in ascending order, f64 accumulators,
            // left-associated power chains), so they must agree
            // *bit-for-bit* — including `max_order == 1` (no moments),
            // `rows == 0`, and a ragged final column block (cols up to 200
            // crosses the 64-column blocking with a partial tail).
            // `max_order ∈ 1..=6` exercises every monomorphised ORDERS arm.
            let z = Matrix::from_fn(rows, cols, |r, c| {
                let h = (r as u64 * 131 + c as u64 * 31 + seed * 1009) % 1997;
                h as f32 / 1997.0 - 0.5
            });
            let center: Vec<f32> = (0..cols)
                .map(|c| ((c as u64 * 53 + seed) % 101) as f32 / 101.0 - 0.5)
                .collect();
            let all = central_moments_upto(&z, &center, max_order);
            prop_assert_eq!(all.len(), (max_order - 1) as usize);
            for (idx, order) in (2..=max_order).enumerate() {
                let single = central_moments(&z, &center, order);
                prop_assert_eq!(&all[idx], &single, "order {}", order);
            }
        }

        #[test]
        fn prop_upto_dynamic_fallback_is_bit_identical(
            rows in 0usize..30, cols in 1usize..80, max_order in 7u32..10, seed in 0u64..200
        ) {
            // Order counts past the monomorphised 1..=5 arms take the
            // heap-accumulator fallback; pin it to the reference too.
            let z = Matrix::from_fn(rows, cols, |r, c| {
                let h = (r as u64 * 67 + c as u64 * 29 + seed * 811) % 1499;
                h as f32 / 1499.0 - 0.5
            });
            let center: Vec<f32> = (0..cols)
                .map(|c| ((c as u64 * 41 + seed) % 89) as f32 / 89.0 - 0.5)
                .collect();
            let all = central_moments_upto(&z, &center, max_order);
            for (idx, order) in (2..=max_order).enumerate() {
                let single = central_moments(&z, &center, order);
                prop_assert_eq!(&all[idx], &single, "order {}", order);
            }
        }

        #[test]
        fn prop_moments_shift_with_center(rows in 2usize..30, seed in 0u64..500) {
            // Second moment about c equals variance + (mean - c)^2.
            let z = Matrix::from_fn(rows, 1, |r, _| ((r as u64 * 37 + seed) % 23) as f32 / 23.0);
            let mean = column_means(&z)[0];
            let var = central_moments(&z, &[mean], 2)[0];
            let c = 0.123f32;
            let m2 = central_moments(&z, &[c], 2)[0];
            prop_assert!((m2 - (var + (mean - c) * (mean - c))).abs() < 1e-5);
        }
    }
}
