//! Property-based tests over the tape: algebraic identities that must hold
//! for any randomly-shaped computation, complementing the per-op
//! finite-difference checks in `tape.rs`.

#![cfg(test)]

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use crate::tape::Tape;
use fedomd_sparse::Csr;
use fedomd_tensor::gemm::{matmul, matmul_ref, matmul_tn, matmul_tn_ref};
use fedomd_tensor::Matrix;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// The value a special-entry code writes: NaN, +inf, -inf or -0.0.
fn special(kind: u8) -> f32 {
    match kind {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        _ => -0.0,
    }
}

/// A `rows × cols` matrix of values in `[-2, 2)` with up to two entries
/// overwritten by [`special`] values (none in about a third of cases).
fn arb_poisoned(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    (arb_matrix(rows, cols), vec((0usize..4096, 0u8..4), 0..3)).prop_map(
        move |(mut m, specials)| {
            for (i, kind) in specials {
                m.as_mut_slice()[i % (rows * cols)] = special(kind);
            }
            m
        },
    )
}

/// `(A, W, G)` for `Y = A·W` with upstream gradient `G`: `A` is 0–65 %
/// non-zero, its zeros a mix of `+0.0` and `-0.0`, and every third row is
/// emptied in about half the cases. Up to 96 × 40 × 20, so both sides of
/// the dense dispatcher's small-product cut-off (the serial reference
/// kernels below, the packed and direct-`tn` kernels above), of the input
/// layer's CSR cut-over (½) and of the SpMM register chunk are covered.
fn arb_sparse_product() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (1usize..96, 1usize..40, 1usize..20, 0u32..=65, 0u8..2).prop_flat_map(
        |(m, k, n, pct, empty_rows)| {
            let entries = vec((0u32..100, -2.0f32..2.0, 0u8..2), m * k);
            (entries, arb_poisoned(k, n), arb_poisoned(m, n)).prop_map(move |(entries, w, g)| {
                let a = Matrix::from_fn(m, k, |r, c| {
                    let (roll, v, negative) = entries[r * k + c];
                    if roll < pct && !(empty_rows == 1 && r % 3 == 0) {
                        v
                    } else if negative == 1 {
                        -0.0
                    } else {
                        0.0
                    }
                });
                (a, w, g)
            })
        },
    )
}

/// `to_bits` equality, except that with `nan_may_differ` both sides being
/// NaN is enough: which NaN survives where two different NaNs meet is
/// unspecified for the packed GEMM kernels against their serial
/// references (`fedomd_tensor::gemm` module docs).
fn assert_bits_eq(got: &Matrix, want: &Matrix, nan_may_differ: bool) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
        if !(nan_may_differ && x.is_nan() && y.is_nan()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
    Ok(())
}

/// Checks `csr_matmul`'s forward `A·W` and weight gradient `Aᵀ·G`
/// against the dense dispatcher and the serial reference kernels on `A`
/// itself, `-0.0` entries included, `to_bits` (against the references up
/// to which NaN survives). A NaN or ±inf in `W` or `G` sends the op to
/// its fallback on the densified CSR, which stores no zeros at all.
fn check_csr_matmul(a: Matrix, w: Matrix, g: Matrix) -> Result<(), TestCaseError> {
    let (m, k) = a.shape();
    let n = w.cols();
    let mut nonzeros = Vec::new();
    for r in 0..m {
        for c in 0..k {
            if a[(r, c)] != 0.0 {
                nonzeros.push((r, c, a[(r, c)]));
            }
        }
    }
    let csr = Arc::new(Csr::from_coo(m, k, nonzeros));

    let mut t = Tape::new();
    let wv = t.param(w.clone());
    let y = t.csr_matmul(&csr, wv);
    // loss = 1ᵀ·(Y ⊙ G)·1, whose gradient with respect to Y is
    // exactly G.
    let yg = t.mask_mul(y, g.clone());
    let ones_l = t.constant(Matrix::full(1, m, 1.0));
    let ones_r = t.constant(Matrix::full(n, 1, 1.0));
    let s = t.matmul(ones_l, yg);
    let loss = t.matmul(s, ones_r);
    t.backward(loss);

    assert_bits_eq(t.value(y), &matmul(&a, &w), false)?;
    assert_bits_eq(t.value(y), &matmul_ref(&a, &w), true)?;
    let dw = t.grad(wv).expect("W gets a gradient");
    assert_bits_eq(dw, &matmul_tn(&a, &g), false)?;
    assert_bits_eq(dw, &matmul_tn_ref(&a, &g), true)?;
    Ok(())
}

/// A `computer_paper`-shaped case, fixed seed: `A` is 300 × 767 at about
/// 38 % density, so the packed kernel's `KC` = 256-deep summation panels
/// split every output element's sum twice (the panel boundaries that a
/// 767-feature shard crosses), with a finite and a poisoned `W` and `G`.
#[test]
fn csr_matmul_is_the_packed_product_across_summation_panels() {
    use rand::Rng;
    let (m, k, n) = (300, 767, 64);
    let mut rng = fedomd_tensor::rng::seeded(38);
    let a = Matrix::from_fn(m, k, |_, _| {
        if rng.gen_range(0..100) < 38 {
            rng.gen_range(-2.0f32..2.0)
        } else if rng.gen_range(0..2) == 0 {
            -0.0
        } else {
            0.0
        }
    });
    let w = fedomd_tensor::init::standard_normal(k, n, &mut rng);
    let g = fedomd_tensor::init::standard_normal(m, n, &mut rng);
    check_csr_matmul(a.clone(), w.clone(), g.clone()).expect("finite W and G");
    let (mut w_bad, mut g_bad) = (w, g);
    w_bad[(300, 5)] = f32::NAN;
    g_bad[(17, 40)] = f32::INFINITY;
    check_csr_matmul(a, w_bad, g_bad).expect("non-finite W and G");
}

proptest! {
    /// The sparse input layer is the dense product, bit for bit: the
    /// forward `A·W` and the weight gradient `Aᵀ·G` of `csr_matmul` equal
    /// the dense dispatcher's and the serial reference kernels' on `A`,
    /// at densities on both sides of the input layer's CSR cut-over.
    /// About two thirds of the draws put a NaN, ±inf or `-0.0` into `W`
    /// or `G`; a NaN or ±inf runs the op's densify fallback.
    #[test]
    fn csr_matmul_is_the_dense_product(case in arb_sparse_product()) {
        let (a, w, g) = case;
        check_csr_matmul(a, w, g)?;
    }

    /// d(sum(A·B))/dA is linear in B: doubling B doubles the gradient.
    #[test]
    fn matmul_gradient_linear_in_other_operand(
        a in arb_matrix(3, 4), b in arb_matrix(4, 2)
    ) {
        let grad_for = |bm: &Matrix| {
            let mut t = Tape::new();
            let av = t.param(a.clone());
            let bv = t.constant(bm.clone());
            let c = t.matmul(av, bv);
            let ones_l = t.constant(Matrix::full(1, 3, 1.0));
            let ones_r = t.constant(Matrix::full(2, 1, 1.0));
            let s = t.matmul(ones_l, c);
            let s = t.matmul(s, ones_r);
            t.backward(s);
            t.grad(av).cloned().expect("grad")
        };
        let g1 = grad_for(&b);
        let b2 = fedomd_tensor::ops::scale(&b, 2.0);
        let g2 = grad_for(&b2);
        for (x, y) in g1.as_slice().iter().zip(g2.as_slice()) {
            prop_assert!((2.0 * x - y).abs() <= 1e-4 + 1e-3 * y.abs());
        }
    }

    /// backward(α·f) == α·backward(f).
    #[test]
    fn scale_commutes_with_backward(a in arb_matrix(3, 3), alpha in -3.0f32..3.0) {
        let grad_for = |scale: Option<f32>| {
            let mut t = Tape::new();
            let av = t.param(a.clone());
            let sq = t.matmul(av, av);
            let ones_l = t.constant(Matrix::full(1, 3, 1.0));
            let ones_r = t.constant(Matrix::full(3, 1, 1.0));
            let s = t.matmul(ones_l, sq);
            let mut s = t.matmul(s, ones_r);
            if let Some(al) = scale {
                s = t.scale(s, al);
            }
            t.backward(s);
            t.grad(av).cloned().expect("grad")
        };
        let g = grad_for(None);
        let ga = grad_for(Some(alpha));
        for (x, y) in g.as_slice().iter().zip(ga.as_slice()) {
            prop_assert!((alpha * x - y).abs() <= 1e-3 + 1e-3 * y.abs());
        }
    }

    /// Gradient of a sum of two losses equals the sum of the separate
    /// gradients (additivity of reverse accumulation).
    #[test]
    fn gradients_are_additive_over_losses(a in arb_matrix(4, 3)) {
        let target1 = Matrix::full(4, 3, 0.5);
        let target2 = Matrix::full(4, 3, -0.25);
        let grad_for = |use1: bool, use2: bool| {
            let mut t = Tape::new();
            let av = t.param(a.clone());
            let l1 = t.sq_diff(av, &target1);
            let l2 = t.sq_diff(av, &target2);
            let loss = match (use1, use2) {
                (true, true) => t.add(l1, l2),
                (true, false) => l1,
                (false, true) => l2,
                (false, false) => panic!("no loss term selected"),
            };
            t.backward(loss);
            t.grad(av).cloned().expect("grad")
        };
        let g_both = grad_for(true, true);
        let g1 = grad_for(true, false);
        let g2 = grad_for(false, true);
        for ((b, x), y) in g_both.as_slice().iter().zip(g1.as_slice()).zip(g2.as_slice()) {
            prop_assert!((b - (x + y)).abs() <= 1e-4);
        }
    }

    /// ReLU gradient is a sub-mask of the incoming gradient: it never
    /// flips sign or grows magnitude.
    #[test]
    fn relu_gradient_is_contraction(a in arb_matrix(5, 5)) {
        let mut t = Tape::new();
        let av = t.param(a.clone());
        let r = t.relu(av);
        let ones_l = t.constant(Matrix::full(1, 5, 1.0));
        let ones_r = t.constant(Matrix::full(5, 1, 1.0));
        let s = t.matmul(ones_l, r);
        let s = t.matmul(s, ones_r);
        t.backward(s);
        let g = t.grad(av).expect("grad");
        for (&gv, &xv) in g.as_slice().iter().zip(a.as_slice()) {
            if xv > 0.0 {
                prop_assert!((gv - 1.0).abs() < 1e-6);
            } else {
                prop_assert_eq!(gv, 0.0);
            }
        }
    }

    /// Cross-entropy of one-hot-confident logits tends to zero, and its
    /// gradient pushes the true-class logit up (negative gradient).
    #[test]
    fn cross_entropy_gradient_signs(label in 0usize..3) {
        let mut logits = Matrix::zeros(1, 3);
        logits[(0, label)] = 5.0;
        let mut t = Tape::new();
        let lv = t.param(logits);
        let loss = t.softmax_cross_entropy(lv, &[label], &[0]);
        prop_assert!(t.scalar(loss) < 0.05);
        t.backward(loss);
        let g = t.grad(lv).expect("grad");
        prop_assert!(g[(0, label)] < 0.0, "true-class gradient must be negative");
        for c in 0..3 {
            if c != label {
                prop_assert!(g[(0, c)] > 0.0);
            }
        }
    }
}
