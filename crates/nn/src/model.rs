//! The [`Model`] abstraction shared by every local model in the federation.

use std::sync::Arc;

use fedomd_autograd::{Tape, Var};
use fedomd_sparse::Csr;
use fedomd_tensor::Matrix;

/// The per-client graph input: normalised adjacency `Ŝ`, raw features `X`,
/// and the cached product `ŜX` (constant across epochs, so computed once).
///
/// `ŜX` is the left operand of the GCN models' first layer. Over
/// bag-of-words features it is mostly zeros, so when fewer than
/// [`SPARSE_MAX_DENSITY`](fedomd_tensor::gemm::SPARSE_MAX_DENSITY) of its
/// entries are non-zero the input also keeps it as CSR, and
/// [`GraphInput::sx_matmul`] runs the first layer through SpMM instead of
/// the dense product. Denser inputs keep only the dense copy and the dense
/// path.
#[derive(Clone)]
pub struct GraphInput {
    /// Symmetrically normalised adjacency with self-loops.
    pub s: Arc<Csr>,
    /// Node feature matrix (`n × d`).
    pub x: Arc<Matrix>,
    /// Cached `Ŝ · X`.
    pub sx: Arc<Matrix>,
    /// `sx` as CSR when it is zero-heavy, else `None`.
    pub sx_csr: Option<Arc<Csr>>,
}

impl GraphInput {
    /// Builds the input, precomputing `Ŝ·X` and, when it is zero-heavy,
    /// its CSR form.
    pub fn new(s: Arc<Csr>, x: Matrix) -> Self {
        assert_eq!(
            s.rows(),
            x.rows(),
            "GraphInput: S and X row counts disagree"
        );
        let sx = s.spmm(&x);
        let sx_csr = Csr::from_zero_heavy(&sx).map(Arc::new);
        Self {
            s,
            x: Arc::new(x),
            sx: Arc::new(sx),
            sx_csr,
        }
    }

    /// Records the first layer's `Ŝ·X·W` on `tape`: through the CSR form
    /// when the input has one, else as a dense product on a pooled copy of
    /// `sx`. Both paths give the same bits.
    pub fn sx_matmul(&self, tape: &mut Tape, w: Var) -> Var {
        match &self.sx_csr {
            Some(a) => tape.csr_matmul(a, &self.sx, w),
            None => {
                let sx = tape.constant_copied(&self.sx);
                tape.matmul(sx, w)
            }
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.x.rows()
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }
}

/// What a forward pass hands back to the trainer.
pub struct ForwardOut {
    /// Pre-softmax class scores, `n × classes`.
    pub logits: Var,
    /// Hidden activations `Z^1..Z^{L-1}` in layer order — the matrices the
    /// CMD constraint is applied to (paper Algorithm 1, line 3-4).
    pub hidden: Vec<Var>,
    /// Tape vars of every parameter, aligned with [`Model::params`].
    pub param_vars: Vec<Var>,
    /// Tape vars of the hidden weight matrices subject to the
    /// orthogonality penalty (paper Eq. 6); subset of `param_vars`.
    pub ortho_weight_vars: Vec<Var>,
}

/// A trainable local model.
///
/// Parameters cross the federation boundary as plain `Vec<Matrix>` in a
/// fixed order, which is what FedAvg aggregates.
pub trait Model: Send + Sync {
    /// Registers parameters on `tape`, records the forward pass.
    fn forward(&self, tape: &mut Tape, input: &GraphInput) -> ForwardOut;

    /// An independent copy of the model, state included (parameters,
    /// step counter), so one initial model can be handed to every client
    /// without rebuilding it.
    fn boxed_clone(&self) -> Box<dyn Model>;

    /// Snapshot of all parameters (aggregation order).
    fn params(&self) -> Vec<Matrix>;

    /// Overwrites all parameters from a snapshot in the same order.
    ///
    /// # Panics
    /// Implementations panic on arity or shape mismatch.
    fn set_params(&mut self, params: &[Matrix]);

    /// Hook run after each optimiser step (e.g. the Newton–Schulz
    /// re-orthogonalisation of Ortho-GCN's hidden weights).
    fn post_step(&mut self) {}

    /// Optimiser steps taken so far, for models whose [`Model::post_step`]
    /// behaviour depends on the step index. Stateless models report 0;
    /// together with [`Model::set_steps`] this makes step-indexed state
    /// checkpointable.
    fn steps(&self) -> usize {
        0
    }

    /// Restores the step counter saved by [`Model::steps`] (no-op for
    /// stateless models).
    fn set_steps(&mut self, _steps: usize) {}

    /// Total scalar parameter count (for communication accounting).
    fn n_scalars(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// Shared helpers for model unit tests (compiled only under `cfg(test)`).
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::optim::{Optimizer, Sgd};
    use fedomd_sparse::normalized_adjacency;
    use fedomd_tensor::rng::seeded;

    /// A ring graph on `n` nodes with `d`-dimensional deterministic features.
    pub fn ring_input(n: usize, d: usize) -> GraphInput {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let s = Arc::new(normalized_adjacency(n, &edges));
        let x = Matrix::from_fn(n, d, |r, c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5);
        GraphInput::new(s, x)
    }

    /// Trains `model` on a small separable problem (class = argmax of the
    /// first `classes` features, features class-aligned) and returns the
    /// final training accuracy. Used to smoke-test every model's gradients
    /// actually descend the CE loss.
    pub fn train_to_fit(
        mut model: Box<dyn Model>,
        in_dim: usize,
        classes: usize,
        epochs: usize,
        lr: f32,
    ) -> f32 {
        let n = 40;
        let mut rng = seeded(7);
        // Class-aligned features: node i has class i % classes, and its
        // features are a noisy one-hot block of its class.
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let x = Matrix::from_fn(n, in_dim, |r, c| {
            let base = if c % classes == labels[r] { 1.0 } else { 0.0 };
            base + 0.1 * fedomd_tensor::init::gaussian(&mut rng)
        });
        // Homophilous edges: consecutive same-class nodes.
        let edges: Vec<_> = (0..n)
            .filter(|&i| i + classes < n)
            .map(|i| (i, i + classes))
            .collect();
        let s = Arc::new(normalized_adjacency(n, &edges));
        let input = GraphInput::new(s, x);
        let mask: Vec<usize> = (0..n).collect();

        let mut opt = Sgd::new(lr, 0.0);
        for _ in 0..epochs {
            let mut tape = fedomd_autograd::Tape::new();
            let out = model.forward(&mut tape, &input);
            let loss = tape.softmax_cross_entropy(out.logits, &labels, &mask);
            tape.backward(loss);
            let grads: Vec<Matrix> = out
                .param_vars
                .iter()
                .map(|&v| {
                    tape.grad(v).cloned().unwrap_or_else(|| {
                        let val = tape.value(v);
                        Matrix::zeros(val.rows(), val.cols())
                    })
                })
                .collect();
            let mut params = model.params();
            opt.step(&mut params, &grads);
            model.set_params(&params);
            model.post_step();
        }

        let mut tape = fedomd_autograd::Tape::new();
        let out = model.forward(&mut tape, &input);
        let logits = tape.value(out.logits);
        let correct = (0..n)
            .filter(|&r| {
                let row = logits.row(r);
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("non-empty row");
                pred == labels[r]
            })
            .count();
        correct as f32 / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ortho_gcn::OrthoGcnConfig;
    use crate::optim::{Adam, Optimizer};
    use crate::{Gcn, OrthoGcn};
    use fedomd_sparse::normalized_adjacency;
    use fedomd_tensor::rng::seeded;

    #[test]
    fn graph_input_caches_sx() {
        let s = Arc::new(normalized_adjacency(3, &[(0, 1), (1, 2)]));
        let x = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let gi = GraphInput::new(s.clone(), x.clone());
        gi.sx.assert_close(&s.spmm(&x), 1e-6);
        assert_eq!(gi.n_nodes(), 3);
        assert_eq!(gi.n_features(), 2);
    }

    /// A ring of 48 nodes with one of 64 features set per node, so `Ŝ·X`
    /// is at most 3/64 non-zero and the input carries its CSR form.
    fn sparse_ring_input() -> GraphInput {
        let n = 48;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let s = Arc::new(normalized_adjacency(n, &edges));
        let x = Matrix::from_fn(n, 64, |r, c| {
            if c == (r * 13) % 64 {
                1.0 + (r % 5) as f32 * 0.25
            } else {
                0.0
            }
        });
        GraphInput::new(s, x)
    }

    /// One training step — forward, cross-entropy, backward, Adam,
    /// post-step hook — returning the parameters it leaves.
    fn one_step(model: &mut dyn Model, input: &GraphInput, classes: usize) -> Vec<Matrix> {
        let n = input.n_nodes();
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let mask: Vec<usize> = (0..n).step_by(2).collect();
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, input);
        let loss = tape.softmax_cross_entropy(out.logits, &labels, &mask);
        tape.backward(loss);
        let grads: Vec<Matrix> = out
            .param_vars
            .iter()
            .map(|&v| tape.grad_or_zeros(v))
            .collect();
        let mut params = model.params();
        Adam::new(0.01, 5e-4).step(&mut params, &grads);
        model.set_params(&params);
        model.post_step();
        model.params()
    }

    fn bits(ps: &[Matrix]) -> Vec<u32> {
        ps.iter()
            .flat_map(|p| p.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// A step on the sparse first layer leaves the same bits as the same
    /// step on the dense one, for both models that use it — also when the
    /// step starts with a NaN in the first or in the last weight matrix,
    /// where the op has to fall back to the dense product.
    #[test]
    fn the_sparse_first_layer_steps_to_the_dense_bits() {
        let sparse = sparse_ring_input();
        assert!(sparse.sx_csr.is_some(), "Ŝ·X should be zero-heavy");
        let dense = GraphInput {
            sx_csr: None,
            ..sparse.clone()
        };
        let classes = 3;
        let mut rng = seeded(11);
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Gcn::new(64, 16, classes, &mut rng)),
            Box::new(OrthoGcn::new(OrthoGcnConfig::paper(64, classes), &mut rng)),
        ];
        for model in models {
            let init = model.params();
            let last = init.len() - 1;
            for poison in [None, Some(0), Some(last)] {
                let mut start = init.clone();
                if let Some(p) = poison {
                    start[p].as_mut_slice()[3] = f32::NAN;
                }
                let mut a = model.boxed_clone();
                let mut b = model.boxed_clone();
                a.set_params(&start);
                b.set_params(&start);
                let got = one_step(a.as_mut(), &sparse, classes);
                let want = one_step(b.as_mut(), &dense, classes);
                assert_eq!(bits(&got), bits(&want), "NaN in param {poison:?}");
                assert_ne!(bits(&got), bits(&start), "the step moved nothing");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row counts disagree")]
    fn graph_input_rejects_mismatch() {
        let s = Arc::new(normalized_adjacency(3, &[]));
        let _ = GraphInput::new(s, Matrix::zeros(4, 2));
    }
}
