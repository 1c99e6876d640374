//! The [`Model`] abstraction shared by every local model in the federation.

use std::sync::{Arc, OnceLock};

use fedomd_autograd::{Tape, Var};
use fedomd_sparse::Csr;
use fedomd_tensor::gemm::matmul;
use fedomd_tensor::Matrix;

/// Non-zero fraction below which a [`ConstOperand`] is kept as CSR: the
/// one density cut-over in the workspace, so the one place zeros are
/// skipped. Chosen from the `input_layer` kernel sweep in
/// `benches/gemm.rs` (a `computer_paper`-shaped 2,700 × 767 operand,
/// hidden 64, recorded in `BENCH_kernels.json`; medians on a shared
/// 2-core x86-64 box). The CSR forward and the scatter weight gradient
/// beat the packed dense products from 10 % up to 50 % density (at 50 %:
/// forward 3.9 vs 4.8 ms, weight gradient 4.4 vs 5.5 ms) and lose at
/// 65 % (5.1 vs 4.8 ms, 5.8 vs 5.4 ms), so the costs cross between 50
/// and 65 %. The packed kernel's cost does not fall with the density, so
/// below 10 % the gap only widens. ½ also bounds the memory: at ½ the CSR
/// copy (4-byte value plus 4-byte column per stored entry) is as large as
/// the dense one.
pub const INPUT_CSR_MAX_DENSITY: f64 = 0.5;

/// A constant left operand `A` of a product `A·W` with a trained `W`:
/// `Ŝ·X`, raw `X`, FedLIT's per-type `Ŝ_t·X`, FedSage+'s impaired
/// features. Which form it takes is decided once, when it is built, by
/// [`INPUT_CSR_MAX_DENSITY`]; the dense GEMM kernels never look at a
/// value.
#[derive(Clone)]
pub enum ConstOperand {
    /// Fewer than [`INPUT_CSR_MAX_DENSITY`] of the entries are non-zero:
    /// the products run through [`Tape::csr_matmul`].
    Sparse(Arc<Csr>),
    /// Denser: the products run on the dense kernels.
    Dense(Arc<Matrix>),
}

impl ConstOperand {
    /// `a` as CSR when it is less than [`INPUT_CSR_MAX_DENSITY`]
    /// non-zero (the dense copy is then dropped here), else `a` itself.
    pub fn new(a: Arc<Matrix>) -> Self {
        match Csr::from_zero_heavy(&a, INPUT_CSR_MAX_DENSITY) {
            Some(csr) => Self::Sparse(Arc::new(csr)),
            None => Self::Dense(a),
        }
    }

    /// Records `A·W` on `tape`. Both forms give the same bits.
    pub fn matmul(&self, tape: &mut Tape, w: Var) -> Var {
        match self {
            Self::Sparse(a) => tape.csr_matmul(a, w),
            Self::Dense(a) => {
                let a = tape.constant_copied(a);
                tape.matmul(a, w)
            }
        }
    }

    /// `A·W` off the tape, with the bits of [`ConstOperand::matmul`]'s
    /// forward (the same non-finite fallback).
    pub fn product(&self, w: &Matrix) -> Matrix {
        match self {
            Self::Sparse(a) if w.all_finite() => a.spmm(w),
            Self::Sparse(a) => matmul(&a.to_dense(), w),
            Self::Dense(a) => matmul(a, w),
        }
    }
}

/// The per-client graph input: the propagation operator `Ŝ`, raw
/// features `X`, and the cached product `ŜX` (constant across epochs, so
/// computed once).
///
/// `Ŝ` is the symmetrically normalised adjacency for the GCN family and
/// the row-stochastic mean aggregator for FedSage+'s mended graphs.
/// `ŜX` is the left operand of the first layer and is built as a
/// [`ConstOperand`] with the input (bag-of-words features: Cora's shards
/// are ~6 % non-zero, Amazon Computer's 35–40 %, so both are CSR). `X` is
/// the first layer's operand only for the models that read raw features
/// (`Mlp`, `GraphSage`), so its operand is built on first use and the
/// GCN family never pays for it.
#[derive(Clone)]
pub struct GraphInput {
    /// Propagation operator: normalised adjacency with self-loops.
    pub s: Arc<Csr>,
    /// Node feature matrix (`n × d`).
    pub x: Arc<Matrix>,
    /// Cached `Ŝ · X`.
    pub sx: Arc<Matrix>,
    sx_op: ConstOperand,
    x_op: OnceLock<ConstOperand>,
}

impl GraphInput {
    /// Builds the input, precomputing `Ŝ·X` and its operand.
    pub fn new(s: Arc<Csr>, x: Matrix) -> Self {
        assert_eq!(
            s.rows(),
            x.rows(),
            "GraphInput: S and X row counts disagree"
        );
        let sx = Arc::new(s.spmm(&x));
        Self {
            s,
            x: Arc::new(x),
            sx_op: ConstOperand::new(sx.clone()),
            sx,
            x_op: OnceLock::new(),
        }
    }

    /// The inputs `parts`, one after the other, as one input: `Ŝ` is
    /// their [`Csr::block_diag`], and `X` and `Ŝ·X` their rows stacked in
    /// order. `Ŝ·X` is copied from the parts, not recomputed, and its
    /// operand is built by [`ConstOperand::new`], so the stack takes
    /// whichever form its own density calls for.
    ///
    /// # Panics
    /// Panics when the parts' feature counts differ.
    pub fn stack(parts: &[&GraphInput]) -> Self {
        let s = Csr::block_diag(&parts.iter().map(|p| &*p.s).collect::<Vec<_>>());
        let x = Arc::new(stack_rows(&parts.iter().map(|p| &*p.x).collect::<Vec<_>>()));
        let sx = Arc::new(stack_rows(
            &parts.iter().map(|p| &*p.sx).collect::<Vec<_>>(),
        ));
        Self {
            s: Arc::new(s),
            x,
            sx_op: ConstOperand::new(sx.clone()),
            sx,
            x_op: OnceLock::new(),
        }
    }

    /// `Ŝ·X` as a first layer's left operand.
    pub fn sx_operand(&self) -> &ConstOperand {
        &self.sx_op
    }

    /// `X` as a first layer's left operand, built on the first call.
    pub fn x_operand(&self) -> &ConstOperand {
        self.x_op.get_or_init(|| ConstOperand::new(self.x.clone()))
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

/// The rows of `parts`, in order, as one matrix.
///
/// # Panics
/// Panics when the parts' widths differ.
fn stack_rows(parts: &[&Matrix]) -> Matrix {
    let cols = parts.first().map_or(0, |p| p.cols());
    let rows = parts.iter().map(|p| p.rows()).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for p in parts {
        assert_eq!(p.cols(), cols, "GraphInput::stack: feature counts differ");
        data.extend_from_slice(p.as_slice());
    }
    Matrix::from_vec(rows, cols, data)
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

    /// The logits of [`Model::forward`], recorded on a throwaway tape that
    /// is dropped here: what evaluation runs, so the caller keeps no
    /// tape. No model overrides it, so each has one forward: a tape-free
    /// copy of the four models' forwards, measured on `cohort_sampled`'s
    /// stacked evaluation, saved ~2.5 ms of a ~60 ms round, inside the
    /// round's noise (the tape's fixed cost is spread over a block's
    /// rows).
    ///
    /// The models here compute every output row from the weights and
    /// the rows `Ŝ` links it to, with the same terms in the same order
    /// whatever rows surround them, so on a [`GraphInput::stack`] of
    /// several inputs (a block-diagonal `Ŝ`) the logits are each input's
    /// logits, one after the other. A model that ignores `input`
    /// (FedLIT's reads its own per-client operands) returns logits whose
    /// rows are not the stack's; the stacked evaluation checks the row
    /// count and refuses it.
    fn infer(&self, input: &GraphInput) -> Matrix {
        let mut tape = Tape::new();
        let out = self.forward(&mut tape, input);
        tape.value(out.logits).clone()
    }

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
    use crate::model::tests_support::ring_input;
    use crate::models::ortho_gcn::OrthoGcnConfig;
    use crate::optim::{Adam, Optimizer};
    use crate::{Gcn, GraphSage, Mlp, OrthoGcn};
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

    /// `input` with both operands withheld: dense, as a denser input
    /// would hold them.
    fn all_dense(input: &GraphInput) -> GraphInput {
        GraphInput {
            sx_op: ConstOperand::Dense(input.sx.clone()),
            x_op: OnceLock::from(ConstOperand::Dense(input.x.clone())),
            ..input.clone()
        }
    }

    fn is_sparse(op: &ConstOperand) -> bool {
        matches!(op, ConstOperand::Sparse(_))
    }

    /// One step on `sparse`'s CSR operands leaves the same bits as the
    /// same step with them withheld, for every model with a constant
    /// first-layer operand: `Ŝ·X` for `Gcn` and `OrthoGcn`, `X` for
    /// `Mlp`, both for `GraphSage`. Also when the step starts with a NaN
    /// in the first, the second or the last parameter, where an op has
    /// to fall back to the dense product on the densified CSR.
    fn assert_csr_steps_to_the_dense_bits(sparse: &GraphInput) {
        assert!(is_sparse(sparse.sx_operand()) && is_sparse(sparse.x_operand()));
        let dense = all_dense(sparse);
        let classes = 3;
        let mut rng = seeded(11);
        let models: Vec<Box<dyn Model>> = vec![
            Box::new(Gcn::new(64, 16, classes, &mut rng)),
            Box::new(OrthoGcn::new(OrthoGcnConfig::paper(64, classes), &mut rng)),
            Box::new(Mlp::new(64, 16, classes, &mut rng)),
            Box::new(GraphSage::new(64, 16, classes, &mut rng)),
        ];
        for model in models {
            let init = model.params();
            let last = init.len() - 1;
            for poison in [None, Some(0), Some(1), Some(last)] {
                let mut start = init.clone();
                if let Some(p) = poison {
                    let values = start[p].as_mut_slice();
                    values[3 % values.len()] = f32::NAN;
                }
                let mut a = model.boxed_clone();
                let mut b = model.boxed_clone();
                a.set_params(&start);
                b.set_params(&start);
                let got = one_step(a.as_mut(), sparse, classes);
                let want = one_step(b.as_mut(), &dense, classes);
                assert_eq!(bits(&got), bits(&want), "NaN in param {poison:?}");
                assert_ne!(bits(&got), bits(&start), "the step moved nothing");
            }
        }
    }

    #[test]
    fn the_sparse_first_layer_steps_to_the_dense_bits() {
        assert_csr_steps_to_the_dense_bits(&sparse_ring_input());
    }

    /// The same ring with eight of 64 features set per node, shifted by
    /// one column per node, so each row of `Ŝ·X` sums three neighbours'
    /// disjoint patterns: 24 of 64 = 37.5 % non-zero, the density of the
    /// `computer_paper` shards (and `X` is 12.5 % non-zero).
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
    fn operands_are_csr_below_the_cut_over() {
        let forty = input_with_dense_columns(4);
        let ConstOperand::Sparse(csr) = forty.sx_operand() else {
            panic!("40 % dense is below the cut-over");
        };
        assert_eq!(csr.nnz(), 40);
        assert!(is_sparse(forty.x_operand()));
        let sixty = input_with_dense_columns(6);
        assert!(
            !is_sparse(sixty.sx_operand()) && !is_sparse(sixty.x_operand()),
            "60 % dense keeps only the dense copy"
        );
    }

    #[test]
    fn the_x_operand_is_built_on_first_use() {
        let input = sparse_ring_input();
        assert!(input.x_op.get().is_none());
        let mut tape = Tape::new();
        let _ = Gcn::new(64, 16, 3, &mut seeded(1)).forward(&mut tape, &input);
        assert!(input.x_op.get().is_none(), "a GCN does not read X");
        let _ = Mlp::new(64, 16, 3, &mut seeded(1)).forward(&mut tape, &input);
        assert!(input.x_op.get().is_some());
    }

    /// The step test above on an input as dense as a `computer_paper`
    /// shard, where the dense side runs on the packed kernel.
    #[test]
    fn the_sparse_first_layer_steps_to_the_packed_bits() {
        let sparse = dense_ring_input();
        let ConstOperand::Sparse(csr) = sparse.sx_operand() else {
            panic!("37.5 % is below the cut-over");
        };
        let density = csr.nnz() as f64 / sparse.sx.len() as f64;
        assert!((0.35..0.40).contains(&density), "density {density}");
        assert_csr_steps_to_the_dense_bits(&sparse);
    }

    #[test]
    fn an_off_tape_product_has_the_tape_bits() {
        let input = sparse_ring_input();
        let mut w = fedomd_tensor::init::standard_normal(64, 16, &mut seeded(3));
        for poisoned in [false, true] {
            if poisoned {
                w[(5, 2)] = f32::INFINITY;
            }
            let mut tape = Tape::new();
            let wv = tape.param_copied(&w);
            let y = input.x_operand().matmul(&mut tape, wv);
            let want: Vec<u32> = tape
                .value(y)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got = input.x_operand().product(&w);
            assert_eq!(bits(&[got]), want, "poisoned {poisoned}");
        }
    }

    /// The CSR first layer's weight gradient scatters from the CSR rows,
    /// so an `OrthoGcn` step leaves one cached transpose in its
    /// workspace, `Ŝ`'s (the later layers' `Ŝ·H` backward), and none of
    /// `Ŝ·X`.
    #[test]
    fn a_csr_step_caches_only_the_adjacency_transpose() {
        let input = dense_ring_input();
        assert!(is_sparse(input.sx_operand()));
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

    /// A shard of `n` nodes with `D_IN` features, drawn from `seed`: every
    /// fourth node isolated (only its self-loop), random edges among the
    /// rest, on the symmetric `Ŝ` or (odd seeds) the mean aggregator.
    /// `X` is ~90 % non-zero when `dense`, else ~10 %, so `Ŝ·X` and `X`
    /// land on either side of the CSR cut-over.
    fn drawn_shard(n: usize, dense: bool, seed: u64) -> GraphInput {
        use fedomd_sparse::row_normalized_adjacency;
        use rand::Rng;
        let mut rng = seeded(seed);
        let linked: Vec<usize> = (0..n).filter(|i| i % 4 != 3).collect();
        let mut edges = Vec::new();
        for _ in 0..n {
            let a = linked[rng.gen_range(0..linked.len())];
            let b = linked[rng.gen_range(0..linked.len())];
            if a != b {
                edges.push((a, b));
            }
        }
        let s = if seed.is_multiple_of(2) {
            normalized_adjacency(n, &edges)
        } else {
            row_normalized_adjacency(n, &edges)
        };
        let keep = if dense { 0.9 } else { 0.1 };
        let x = Matrix::from_fn(n, D_IN, |_, _| {
            if rng.gen_bool(keep) {
                fedomd_tensor::init::gaussian(&mut rng)
            } else {
                0.0
            }
        });
        GraphInput::new(Arc::new(s), x)
    }

    const D_IN: usize = 24;
    const CLASSES: usize = 5;

    /// One model of each kind, every parameter (the MLP's biases too)
    /// drawn from a standard normal. 32 hidden units put a stack's
    /// products past the GEMM dispatcher's small-product cut, onto the
    /// packed kernel, while a shard's stay on the reference kernel.
    fn drawn_models(seed: u64) -> Vec<Box<dyn Model>> {
        let mut rng = seeded(seed);
        let ortho = OrthoGcnConfig {
            hidden_dim: 32,
            hidden_layers: 3,
            ..OrthoGcnConfig::paper(D_IN, CLASSES)
        };
        let mut models: Vec<Box<dyn Model>> = vec![
            Box::new(Gcn::new(D_IN, 32, CLASSES, &mut rng)),
            Box::new(OrthoGcn::new(ortho, &mut rng)),
            Box::new(Mlp::new(D_IN, 32, CLASSES, &mut rng)),
            Box::new(GraphSage::new(D_IN, 32, CLASSES, &mut rng)),
        ];
        for m in &mut models {
            let params: Vec<Matrix> = m
                .params()
                .iter()
                .map(|p| fedomd_tensor::init::standard_normal(p.rows(), p.cols(), &mut rng))
                .collect();
            m.set_params(&params);
        }
        models
    }

    fn slice_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        /// Evaluating a stack of shards is evaluating each shard: for
        /// every model, each shard's rows of `infer` on the
        /// [`GraphInput::stack`] of 1–6 shards are `to_bits` the logits of
        /// that shard's own forward. The stack's `Ŝ·X` takes whichever
        /// form its density calls for, so a CSR stack holds dense shards
        /// and a dense stack CSR ones.
        #[test]
        fn stacked_infer_is_each_shards_forward(
            shards in proptest::collection::vec((1usize..41, 0u8..2, 0u64..1 << 32), 1..7),
            model_seed in 0u64..1 << 32,
        ) {
            let parts: Vec<GraphInput> = shards
                .iter()
                .map(|&(n, dense, seed)| drawn_shard(n, dense == 1, seed))
                .collect();
            let stack = GraphInput::stack(&parts.iter().collect::<Vec<_>>());
            let rows: usize = parts.iter().map(GraphInput::n_nodes).sum();
            proptest::prop_assert_eq!(stack.n_nodes(), rows);
            for model in drawn_models(model_seed) {
                let stacked = model.infer(&stack);
                let mut row = 0;
                for part in &parts {
                    let mut tape = Tape::new();
                    let out = model.forward(&mut tape, part);
                    let want = slice_bits(tape.value(out.logits).as_slice());
                    let got = &stacked.as_slice()[row * CLASSES..][..want.len()];
                    proptest::prop_assert_eq!(slice_bits(got), want);
                    row += part.n_nodes();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature counts differ")]
    fn stacking_rejects_mixed_feature_counts() {
        let _ = GraphInput::stack(&[&ring_input(3, 2), &ring_input(3, 4)]);
    }

    #[test]
    #[should_panic(expected = "row counts disagree")]
    fn graph_input_rejects_mismatch() {
        let s = Arc::new(normalized_adjacency(3, &[]));
        let _ = GraphInput::new(s, Matrix::zeros(4, 2));
    }
}
