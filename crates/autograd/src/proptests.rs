//! Property-based tests over the tape: algebraic identities that must hold
//! for any randomly-shaped computation, complementing the per-op
//! finite-difference checks in `tape.rs`.

#![cfg(test)]

use proptest::prelude::*;

use crate::tape::Tape;
use fedomd_tensor::Matrix;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
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
