//! The Central Moment Discrepancy distance (paper Eq. 11) and its analytic
//! gradient with respect to the client's hidden representation.
//!
//! For a client activation matrix `Z` (`n × d`) with column means
//! `m = E(Z)` and central moments `C_j = E[(Z − m)^j]`, and server targets
//! `(M, S_2..S_J)` obtained from the two-round protocol, the distance is
//!
//! ```text
//! d_CMD = (1/w)‖m − M‖₂ + Σ_{j=2}^{J} (1/w^j) ‖C_j − S_j‖₂
//! ```
//!
//! with `w = b − a` the assumed activation range. The gradient through both
//! the mean and each central moment is analytic:
//!
//! ```text
//! ∂d/∂Z[r,c] = (1/w)·u_c/n
//!            + Σ_j (1/w^j)·v_{j,c}·(j/n)·((Z[r,c] − m_c)^{j−1} − C_{j−1,c})
//! ```
//!
//! where `u = (m − M)/‖m − M‖`, `v_j = (C_j − S_j)/‖C_j − S_j‖` (taken as 0
//! at the non-differentiable origin), and `C_1 = 0` by definition.

use fedomd_tensor::stats::{central_moments, central_moments_upto, column_means, l2_distance};
use fedomd_tensor::Matrix;

/// Server-side CMD targets for one hidden layer: the global mean `M` and
/// the global central moments `S_j` for `j = 2..=max_order`.
#[derive(Clone, Debug, PartialEq)]
pub struct CmdTargets {
    /// Global column mean `M` (length `d`).
    pub mean: Vec<f32>,
    /// `moments[j - 2]` is the order-`j` global central moment (length `d`).
    pub moments: Vec<Vec<f32>>,
}

impl CmdTargets {
    /// Highest moment order carried (the paper uses 5).
    pub fn max_order(&self) -> u32 {
        self.moments.len() as u32 + 1
    }

    /// Targets computed from a single matrix (used by tests: the CMD of `Z`
    /// against its own targets must be zero). `max_order == 1` yields a
    /// mean-only target with no moment constraints.
    pub fn from_matrix(z: &Matrix, max_order: u32) -> Self {
        assert!(max_order >= 1);
        let mean = column_means(z);
        let moments = central_moments_upto(z, &mean, max_order);
        Self { mean, moments }
    }
}

/// Forward value of the CMD distance for one layer.
///
/// # Panics
/// Panics when dimensions disagree or `width <= 0`.
pub fn cmd_value(z: &Matrix, targets: &CmdTargets, width: f32) -> f32 {
    cmd_value_weighted(z, targets, width, 1.0)
}

/// [`cmd_value`] with the first (mean-alignment) term of Eq. 11 scaled by
/// `mean_scale`. `mean_scale = 1` is the paper's distance; `0` keeps only
/// the order-≥2 shape terms — an ablation of which Eq. 11 component the
/// constraint's effect comes from.
pub fn cmd_value_weighted(z: &Matrix, targets: &CmdTargets, width: f32, mean_scale: f32) -> f32 {
    assert!(width > 0.0, "cmd_value: width must be positive");
    assert_eq!(
        targets.mean.len(),
        z.cols(),
        "cmd_value: dimension mismatch"
    );
    let m = column_means(z);
    let mut total = mean_scale * l2_distance(&m, &targets.mean) / width;
    // One fused sweep over Z yields every order at once (bit-identical to
    // the per-order reference — see `cmd_value_ref` and the proptests).
    let all = central_moments_upto(z, &m, targets.max_order());
    let mut wj = width;
    for (c_j, s_j) in all.iter().zip(&targets.moments) {
        wj *= width;
        total += l2_distance(c_j, s_j) / wj;
    }
    total
}

/// Per-order reference implementation of [`cmd_value_weighted`]: one
/// `central_moments` sweep per order, exactly the pre-fusion kernel. Kept
/// as the bit-identity oracle for the fused path.
pub fn cmd_value_ref(z: &Matrix, targets: &CmdTargets, width: f32, mean_scale: f32) -> f32 {
    assert!(width > 0.0, "cmd_value: width must be positive");
    assert_eq!(
        targets.mean.len(),
        z.cols(),
        "cmd_value: dimension mismatch"
    );
    let m = column_means(z);
    let mut total = mean_scale * l2_distance(&m, &targets.mean) / width;
    let mut wj = width;
    for (idx, s_j) in targets.moments.iter().enumerate() {
        let j = idx as u32 + 2;
        wj *= width;
        let c_j = central_moments(z, &m, j);
        total += l2_distance(&c_j, s_j) / wj;
    }
    total
}

/// Gradient of `gout * cmd_value(z, targets, width)` with respect to `z`.
pub fn cmd_grad(z: &Matrix, targets: &CmdTargets, width: f32, gout: f32) -> Matrix {
    cmd_grad_weighted(z, targets, width, gout, 1.0)
}

/// Rows per block of the gradient sweep: amortises the per-call SIMD
/// dispatch over a block of rows.
const GRAD_ROW_BLOCK: usize = 64;

/// The per-row gradient kernel over a block of rows, monomorphised on the
/// moment-term count. Per element it evaluates
/// `g0[col] + Σ_ord w[ord·d+col]·(p − cprev[ord·d+col])` with `p` the
/// left-associated power chain `diff, diff², …` — exactly the reference
/// expression in [`cmd_grad_ref`] with its per-column constant prefix
/// hoisted (the hoisted products are left-associated in the same order,
/// so every partial product is bitwise the same). `r0` is the absolute
/// row index of `grad`'s first row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn cmd_grad_rows_body<const ORDERS: usize>(
    z_data: &[f32],
    m: &[f32],
    g0: &[f32],
    w: &[f32],
    cprev: &[f32],
    d: usize,
    r0: usize,
    grad: &mut [f32],
) {
    for (rr, grow) in grad.chunks_mut(d).enumerate() {
        let zrow = &z_data[(r0 + rr) * d..(r0 + rr + 1) * d];
        for col in 0..d {
            let diff = zrow[col] - m[col];
            let mut g = g0[col];
            // powers (Z - m)^{j-1}: start at j = 2 -> power 1.
            let mut p = diff;
            for ord in 0..ORDERS {
                g += w[ord * d + col] * (p - cprev[ord * d + col]);
                p *= diff;
            }
            grow[col] += g;
        }
    }
}

/// Baseline-ISA instantiation of the gradient row kernel.
#[allow(clippy::too_many_arguments)]
fn cmd_grad_rows_generic<const ORDERS: usize>(
    z_data: &[f32],
    m: &[f32],
    g0: &[f32],
    w: &[f32],
    cprev: &[f32],
    d: usize,
    r0: usize,
    grad: &mut [f32],
) {
    cmd_grad_rows_body::<ORDERS>(z_data, m, g0, w, cprev, d, r0, grad);
}

/// AVX2 instantiation: identical Rust code, wider auto-vectorisation.
/// Plain lane-wise IEEE mul/add/sub without contraction keeps it
/// bit-identical to [`cmd_grad_rows_generic`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn cmd_grad_rows_avx2<const ORDERS: usize>(
    z_data: &[f32],
    m: &[f32],
    g0: &[f32],
    w: &[f32],
    cprev: &[f32],
    d: usize,
    r0: usize,
    grad: &mut [f32],
) {
    cmd_grad_rows_body::<ORDERS>(z_data, m, g0, w, cprev, d, r0, grad);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
#[allow(unsafe_code, reason = "AVX2 dispatch after runtime detection")]
fn run_cmd_grad_rows<const ORDERS: usize>(
    avx2: bool,
    z_data: &[f32],
    m: &[f32],
    g0: &[f32],
    w: &[f32],
    cprev: &[f32],
    d: usize,
    r0: usize,
    grad: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when `is_x86_feature_detected!`
        // confirmed support in `cmd_grad_weighted`.
        unsafe { cmd_grad_rows_avx2::<ORDERS>(z_data, m, g0, w, cprev, d, r0, grad) };
        return;
    }
    let _ = avx2;
    cmd_grad_rows_generic::<ORDERS>(z_data, m, g0, w, cprev, d, r0, grad);
}

/// Dispatches the runtime moment-term count to a monomorphised kernel
/// (0..=5 covers targets of `max_order ∈ 1..=6`); higher counts take a
/// dynamically-bounded loop with the identical per-element chain.
#[allow(clippy::too_many_arguments)]
fn cmd_grad_rows_dyn(
    avx2: bool,
    orders: usize,
    z_data: &[f32],
    m: &[f32],
    g0: &[f32],
    w: &[f32],
    cprev: &[f32],
    d: usize,
    r0: usize,
    grad: &mut [f32],
) {
    match orders {
        0 => run_cmd_grad_rows::<0>(avx2, z_data, m, g0, w, cprev, d, r0, grad),
        1 => run_cmd_grad_rows::<1>(avx2, z_data, m, g0, w, cprev, d, r0, grad),
        2 => run_cmd_grad_rows::<2>(avx2, z_data, m, g0, w, cprev, d, r0, grad),
        3 => run_cmd_grad_rows::<3>(avx2, z_data, m, g0, w, cprev, d, r0, grad),
        4 => run_cmd_grad_rows::<4>(avx2, z_data, m, g0, w, cprev, d, r0, grad),
        5 => run_cmd_grad_rows::<5>(avx2, z_data, m, g0, w, cprev, d, r0, grad),
        _ => {
            for (rr, grow) in grad.chunks_mut(d).enumerate() {
                let zrow = &z_data[(r0 + rr) * d..(r0 + rr + 1) * d];
                for col in 0..d {
                    let diff = zrow[col] - m[col];
                    let mut g = g0[col];
                    let mut p = diff;
                    for ord in 0..orders {
                        g += w[ord * d + col] * (p - cprev[ord * d + col]);
                        p *= diff;
                    }
                    grow[col] += g;
                }
            }
        }
    }
}

/// Gradient counterpart of [`cmd_value_weighted`].
pub fn cmd_grad_weighted(
    z: &Matrix,
    targets: &CmdTargets,
    width: f32,
    gout: f32,
    mean_scale: f32,
) -> Matrix {
    assert!(width > 0.0, "cmd_grad: width must be positive");
    let (n, d) = z.shape();
    let mut grad = Matrix::zeros(n, d);
    if n == 0 || d == 0 {
        return grad;
    }
    let max_order = targets.max_order();
    let m = column_means(z);

    // Central moments C_1..C_J about the local mean, all orders from one
    // fused sweep. C_1 is identically 0 but participates in the j = 2
    // gradient term, so keep the slot.
    let mut c: Vec<Vec<f32>> = Vec::with_capacity(max_order as usize);
    c.push(vec![0.0; d]);
    c.extend(central_moments_upto(z, &m, max_order));

    // Unit direction for the mean term.
    let mean_norm = l2_distance(&m, &targets.mean);
    let u: Vec<f32> = if mean_norm > 0.0 {
        m.iter()
            .zip(&targets.mean)
            .map(|(a, b)| (a - b) / mean_norm)
            .collect()
    } else {
        vec![0.0; d]
    };

    // Unit directions and weights for each moment term.
    let mut v: Vec<Vec<f32>> = Vec::with_capacity(max_order as usize - 1);
    let mut coef: Vec<f32> = Vec::with_capacity(max_order as usize - 1);
    let mut wj = width;
    for (idx, s_j) in targets.moments.iter().enumerate() {
        let c_j = &c[idx + 1]; // order j = idx + 2, slot j - 1 = idx + 1
        wj *= width;
        let norm = l2_distance(c_j, s_j);
        if norm > 0.0 {
            v.push(c_j.iter().zip(s_j).map(|(a, b)| (a - b) / norm).collect());
        } else {
            v.push(vec![0.0; d]);
        }
        coef.push(1.0 / wj);
    }

    let inv_n = 1.0 / n as f32;
    let mean_coef = mean_scale * gout / width;
    // Hoist the per-column constants of the reference expression
    // (`mean_coef·u[col]·inv_n` and `gout·coef·v_j[col]·j·inv_n`) out of
    // the row loop; the products stay left-associated in the reference
    // order so the hoisted values are bitwise the ones the reference
    // computes per row.
    let g0: Vec<f32> = u.iter().map(|&uc| mean_coef * uc * inv_n).collect();
    let orders = v.len();
    let mut w = vec![0.0f32; orders * d];
    let mut cprev = vec![0.0f32; orders * d];
    for (idx, vj) in v.iter().enumerate() {
        let j = (idx + 2) as f32;
        for col in 0..d {
            w[idx * d + col] = gout * coef[idx] * vj[col] * j * inv_n;
            cprev[idx * d + col] = c[idx][col]; // C_{j-1}
        }
    }

    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let z_data = z.as_slice();
    grad.as_mut_slice()
        .chunks_mut(d * GRAD_ROW_BLOCK)
        .enumerate()
        .for_each(|(blk, gchunk)| {
            cmd_grad_rows_dyn(
                avx2,
                orders,
                z_data,
                &m,
                &g0,
                &w,
                &cprev,
                d,
                blk * GRAD_ROW_BLOCK,
                gchunk,
            );
        });
    grad
}

/// Per-order reference implementation of [`cmd_grad_weighted`]: one
/// `central_moments` sweep per order and the unhoisted per-element
/// expression, exactly the pre-fusion kernel. Kept as the bit-identity
/// oracle for the fused/SIMD path.
pub fn cmd_grad_ref(
    z: &Matrix,
    targets: &CmdTargets,
    width: f32,
    gout: f32,
    mean_scale: f32,
) -> Matrix {
    assert!(width > 0.0, "cmd_grad: width must be positive");
    let (n, d) = z.shape();
    let mut grad = Matrix::zeros(n, d);
    if n == 0 || d == 0 {
        return grad;
    }
    let max_order = targets.max_order();
    let m = column_means(z);

    let mut c: Vec<Vec<f32>> = Vec::with_capacity(max_order as usize);
    c.push(vec![0.0; d]);
    for j in 2..=max_order {
        c.push(central_moments(z, &m, j));
    }

    let mean_norm = l2_distance(&m, &targets.mean);
    let u: Vec<f32> = if mean_norm > 0.0 {
        m.iter()
            .zip(&targets.mean)
            .map(|(a, b)| (a - b) / mean_norm)
            .collect()
    } else {
        vec![0.0; d]
    };

    let mut v: Vec<Vec<f32>> = Vec::with_capacity(max_order as usize - 1);
    let mut coef: Vec<f32> = Vec::with_capacity(max_order as usize - 1);
    let mut wj = width;
    for (idx, s_j) in targets.moments.iter().enumerate() {
        let c_j = &c[idx + 1];
        wj *= width;
        let norm = l2_distance(c_j, s_j);
        if norm > 0.0 {
            v.push(c_j.iter().zip(s_j).map(|(a, b)| (a - b) / norm).collect());
        } else {
            v.push(vec![0.0; d]);
        }
        coef.push(1.0 / wj);
    }

    let inv_n = 1.0 / n as f32;
    let z_data = z.as_slice();
    let mean_coef = mean_scale * gout / width;
    for (r, grow) in grad.as_mut_slice().chunks_mut(d).enumerate() {
        let zrow = &z_data[r * d..(r + 1) * d];
        for col in 0..d {
            let diff = zrow[col] - m[col];
            let mut g = mean_coef * u[col] * inv_n;
            let mut p = diff;
            for (idx, vj) in v.iter().enumerate() {
                let j = (idx + 2) as f32;
                let c_prev = c[idx][col];
                g += gout * coef[idx] * vj[col] * j * inv_n * (p - c_prev);
                p *= diff;
            }
            grow[col] += g;
        }
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::finite_diff_check;
    use fedomd_tensor::rng::seeded;

    fn z(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        fedomd_tensor::init::standard_normal(rows, cols, &mut rng).map(|v| v * 0.5)
    }

    fn targets(seed: u64, cols: usize) -> CmdTargets {
        CmdTargets::from_matrix(&z(23, cols, seed), 5)
    }

    #[test]
    fn distance_to_own_targets_is_zero() {
        let a = z(17, 6, 1);
        let t = CmdTargets::from_matrix(&a, 5);
        assert!(cmd_value(&a, &t, 1.0) < 1e-5);
    }

    #[test]
    fn distance_is_nonnegative_and_detects_shift() {
        let a = z(17, 6, 2);
        let shifted = a.map(|v| v + 1.0);
        let t = CmdTargets::from_matrix(&a, 5);
        assert!(cmd_value(&shifted, &t, 1.0) > 0.5);
    }

    #[test]
    fn width_downweights_higher_moments() {
        // With a larger width the same discrepancy costs less.
        let a = z(20, 4, 3);
        let t = targets(4, 4);
        let d1 = cmd_value(&a, &t, 1.0);
        let d5 = cmd_value(&a, &t, 5.0);
        assert!(d5 < d1);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let a = z(9, 4, 5);
        let t = targets(6, 4);
        let analytic = cmd_grad(&a, &t, 1.0, 1.0);
        finite_diff_check(|m| cmd_value(m, &t, 1.0), &a, &analytic, 1e-3, 2e-2);
    }

    #[test]
    fn gradient_with_nonunit_width_and_gout() {
        let a = z(7, 3, 8);
        let t = targets(9, 3);
        let gout = 2.5;
        let width = 2.0;
        let analytic = cmd_grad(&a, &t, width, gout);
        finite_diff_check(
            |m| gout * cmd_value(m, &t, width),
            &a,
            &analytic,
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn gradient_at_own_targets_is_finite() {
        // At the minimum all norms are ~0; the subgradient must be 0/finite,
        // not NaN.
        let a = z(11, 4, 10);
        let t = CmdTargets::from_matrix(&a, 5);
        let g = cmd_grad(&a, &t, 1.0, 1.0);
        assert!(g.all_finite());
        assert!(g.max_abs() < 1e-3);
    }

    #[test]
    fn gradient_descends_the_distance() {
        let mut a = z(15, 5, 11);
        let t = targets(12, 5);
        let before = cmd_value(&a, &t, 1.0);
        for _ in 0..200 {
            let g = cmd_grad(&a, &t, 1.0, 1.0);
            fedomd_tensor::ops::axpy(&mut a, -0.05, &g);
        }
        let after = cmd_value(&a, &t, 1.0);
        assert!(
            after.is_finite() && after < before * 0.8,
            "descent failed: {before} -> {after}"
        );
    }

    #[test]
    fn max_order_respected() {
        let t = CmdTargets::from_matrix(&z(9, 3, 13), 3);
        assert_eq!(t.max_order(), 3);
        assert_eq!(t.moments.len(), 2);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let a = z(4, 2, 14);
        let t = targets(15, 2);
        let _ = cmd_value(&a, &t, 0.0);
    }
}

#[cfg(test)]
mod weighted_tests {
    use super::*;
    use crate::check::finite_diff_check;
    use fedomd_tensor::rng::seeded;

    #[test]
    fn weighted_gradient_matches_finite_differences() {
        let mut rng = seeded(31);
        let z = fedomd_tensor::init::standard_normal(9, 4, &mut rng).map(|v| v * 0.5);
        let t = CmdTargets::from_matrix(
            &fedomd_tensor::init::standard_normal(11, 4, &mut seeded(32)).map(|v| v * 0.5),
            5,
        );
        for ms in [0.0f32, 0.1, 0.7] {
            let g = cmd_grad_weighted(&z, &t, 1.0, 1.0, ms);
            finite_diff_check(|m| cmd_value_weighted(m, &t, 1.0, ms), &z, &g, 1e-3, 2e-2);
        }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_fused_value_is_bit_identical_to_ref(
            rows in 0usize..40, cols in 1usize..96, max_order in 1u32..=6,
            ms_idx in 0usize..3, seed in 0u64..300
        ) {
            let mean_scale = [0.0f32, 0.5, 1.0][ms_idx];
            // The fused one-sweep value path must agree bit-for-bit with
            // the per-order reference for ragged widths (cols crosses the
            // 64-column block boundary), rows == 0, every monomorphised
            // order count, and the weighted (mean_scale) variants.
            let z = Matrix::from_fn(rows, cols, |r, c| {
                let h = (r as u64 * 211 + c as u64 * 37 + seed * 971) % 1783;
                h as f32 / 1783.0 - 0.5
            });
            let t = CmdTargets::from_matrix(
                &Matrix::from_fn(rows.max(3), cols, |r, c| {
                    let h = (r as u64 * 97 + c as u64 * 59 + seed * 389) % 1511;
                    h as f32 / 1511.0 - 0.5
                }),
                max_order,
            );
            let fused = cmd_value_weighted(&z, &t, 1.5, mean_scale);
            let reference = cmd_value_ref(&z, &t, 1.5, mean_scale);
            prop_assert_eq!(fused.to_bits(), reference.to_bits());
        }

        #[test]
        fn prop_fused_grad_is_bit_identical_to_ref(
            rows in 0usize..80, cols in 1usize..96, max_order in 1u32..=6,
            ms_idx in 0usize..3, seed in 0u64..300
        ) {
            let mean_scale = [0.0f32, 0.5, 1.0][ms_idx];
            // Same pinning for the gradient: the monomorphised
            // AVX2-dispatched row kernel (rows up to 80 crosses the
            // 64-row block granule) vs the serial unhoisted reference.
            let z = Matrix::from_fn(rows, cols, |r, c| {
                let h = (r as u64 * 139 + c as u64 * 43 + seed * 677) % 1913;
                h as f32 / 1913.0 - 0.5
            });
            let t = CmdTargets::from_matrix(
                &Matrix::from_fn(rows.max(3), cols, |r, c| {
                    let h = (r as u64 * 83 + c as u64 * 71 + seed * 449) % 1297;
                    h as f32 / 1297.0 - 0.5
                }),
                max_order,
            );
            let fused = cmd_grad_weighted(&z, &t, 1.5, 0.7, mean_scale);
            let reference = cmd_grad_ref(&z, &t, 1.5, 0.7, mean_scale);
            prop_assert_eq!(fused.shape(), reference.shape());
            for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn zero_mean_scale_ignores_mean_shift() {
        let mut rng = seeded(33);
        let z = fedomd_tensor::init::standard_normal(20, 3, &mut rng);
        let t = CmdTargets::from_matrix(&z, 5);
        // Shifting z changes the mean but not the central moments, so with
        // mean_scale = 0 the distance stays ~0.
        let shifted = z.map(|v| v + 3.0);
        assert!(cmd_value_weighted(&shifted, &t, 1.0, 0.0) < 1e-4);
        assert!(cmd_value_weighted(&shifted, &t, 1.0, 1.0) > 1.0);
    }
}
