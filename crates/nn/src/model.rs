//! The [`Model`] abstraction shared by every local model in the federation.

use std::sync::Arc;

use fedomd_autograd::{Tape, Var};
use fedomd_sparse::Csr;
use fedomd_tensor::Matrix;

/// Non-zero fraction of `Ŝ·X` below which [`GraphInput`] also keeps it as
/// CSR and runs the first layer on it. Chosen from the `input_layer`
/// kernel sweep in `benches/gemm.rs` (a `computer_paper`-shaped 2,700 ×
/// 767 operand, hidden 64, recorded in `BENCH_kernels.json`; medians on
/// a shared 2-core x86-64 box). The CSR forward and the scatter weight
/// gradient beat the dense products from 10 % up to 50 % density (at
/// 50 %: forward 11.3 vs 13.2 ms, weight gradient 10.6 vs 13.8 ms) and
/// lose at 65 % (14.0 vs 12.2 ms, 14.4 vs 12.5 ms), so the costs cross
/// between 50 and 65 %. ½ also bounds the memory: at ½ the CSR copy
/// (4-byte value plus 4-byte column per stored entry) is as large as the
/// dense one. This is the input layer's own cut-over; the dense GEMM
/// dispatcher keeps
/// [`SPARSE_MAX_DENSITY`](fedomd_tensor::gemm::SPARSE_MAX_DENSITY) for
/// its zero-skip kernels.
pub const INPUT_CSR_MAX_DENSITY: f64 = 0.5;

/// The per-client graph input: normalised adjacency `Ŝ`, raw features `X`,
/// and the cached product `ŜX` (constant across epochs, so computed once).
///
/// `ŜX` is the left operand of the GCN models' first layer. When fewer
/// than [`INPUT_CSR_MAX_DENSITY`] of its entries are non-zero (bag-of-words
/// features: Cora's shards are ~6 %, Amazon Computer's 35–40 %) the input
/// also keeps it as CSR, and [`GraphInput::sx_matmul`] runs the first
/// layer's forward and weight gradient on it instead of the dense
/// products. The dense copy stays either way: it is the operand of the
/// non-finite fallback and of denser inputs.
#[derive(Clone)]
pub struct GraphInput {
    /// Symmetrically normalised adjacency with self-loops.
    pub s: Arc<Csr>,
    /// Node feature matrix (`n × d`).
    pub x: Arc<Matrix>,
    /// Cached `Ŝ · X`.
    pub sx: Arc<Matrix>,
    /// `sx` as CSR when it is less than [`INPUT_CSR_MAX_DENSITY`]
    /// non-zero, else `None`.
    pub sx_csr: Option<Arc<Csr>>,
}

impl GraphInput {
    /// Builds the input, precomputing `Ŝ·X` and, below
    /// [`INPUT_CSR_MAX_DENSITY`], its CSR form.
    pub fn new(s: Arc<Csr>, x: Matrix) -> Self {
        assert_eq!(
            s.rows(),
            x.rows(),
            "GraphInput: S and X row counts disagree"
        );
        let sx = s.spmm(&x);
        let sx_csr = Csr::from_zero_heavy(&sx, INPUT_CSR_MAX_DENSITY).map(Arc::new);
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
    use fedomd_autograd::Workspace;
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

    /// The same ring with eight of 64 features set per node, shifted by
    /// one column per node, so each row of `Ŝ·X` sums three neighbours'
    /// disjoint patterns: 24 of 64 = 37.5 % non-zero, the density of the
    /// `computer_paper` shards.
    fn dense_ring_input() -> GraphInput {
        let n = 48;
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let s = Arc::new(normalized_adjacency(n, &edges));
        let x = Matrix::from_fn(n, 64, |r, c| {
            if (r + c) % 8 == 0 {
                1.0 + ((r + c) % 5) as f32 * 0.25
            } else {
                0.0
            }
        });
        GraphInput::new(s, x)
    }

    /// `Ŝ = I` (no edges), so `Ŝ·X = X`: a 10 × 10 input whose first
    /// `cols` columns are non-zero.
    fn input_with_dense_columns(cols: usize) -> GraphInput {
        let s = Arc::new(normalized_adjacency(10, &[]));
        let x = Matrix::from_fn(10, 10, |r, c| if c < cols { 1.0 + r as f32 } else { 0.0 });
        GraphInput::new(s, x)
    }

    #[test]
    fn the_input_layer_keeps_csr_below_its_own_cut_over() {
        let forty = input_with_dense_columns(4);
        let csr = forty
            .sx_csr
            .as_ref()
            .expect("40 % dense is below the cut-over");
        assert_eq!(csr.nnz(), 40);
        assert!(
            input_with_dense_columns(6).sx_csr.is_none(),
            "60 % dense keeps only the dense copy"
        );
    }

    /// The step test above on an input as dense as a `computer_paper`
    /// shard, which the dense dispatcher would run on its packed kernel.
    #[test]
    fn the_sparse_first_layer_steps_to_the_packed_bits() {
        let sparse = dense_ring_input();
        let csr = sparse
            .sx_csr
            .as_ref()
            .expect("37.5 % is below the cut-over");
        let density = csr.nnz() as f64 / sparse.sx.len() as f64;
        assert!((0.35..0.40).contains(&density), "density {density}");
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

    /// The CSR first layer's weight gradient scatters from the CSR rows,
    /// so an `OrthoGcn` step leaves one cached transpose in its
    /// workspace, `Ŝ`'s (the later layers' `Ŝ·H` backward), and none of
    /// `Ŝ·X`.
    #[test]
    fn a_csr_step_caches_only_the_adjacency_transpose() {
        let input = dense_ring_input();
        assert!(input.sx_csr.is_some());
        let classes = 3;
        let mut model = OrthoGcn::new(OrthoGcnConfig::paper(64, classes), &mut seeded(11));
        let labels: Vec<usize> = (0..input.n_nodes()).map(|i| i % classes).collect();
        let mask: Vec<usize> = (0..input.n_nodes()).collect();
        let mut tape = Tape::with_workspace(Workspace::new());
        let out = model.forward(&mut tape, &input);
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
        assert_eq!(tape.recycle().cached_transposes(), 1);
    }

    #[test]
    #[should_panic(expected = "row counts disagree")]
    fn graph_input_rejects_mismatch() {
        let s = Arc::new(normalized_adjacency(3, &[]));
        let _ = GraphInput::new(s, Matrix::zeros(4, 2));
    }
}
