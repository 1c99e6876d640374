//! The recording tape: eager forward evaluation plus reverse-mode backward.

use std::sync::Arc;

use fedomd_sparse::Csr;
use fedomd_tensor::activation::{relu_backward_inplace, softmax_rows_inplace};
use fedomd_tensor::gemm::{matmul_into, matmul_nt_into, matmul_tn_into};
use fedomd_tensor::ops::{add_row_broadcast, axpy};
use fedomd_tensor::Matrix;

use crate::cmd::{cmd_grad_weighted, cmd_value_weighted, CmdTargets};
use crate::workspace::Workspace;

/// Handle to a node on a [`Tape`]. Cheap to copy; only meaningful for the
/// tape that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// Input or parameter; no backward propagation beyond gradient storage.
    Leaf,
    /// `C = A · B`.
    MatMul(usize, usize),
    /// `Y = S · X` for a constant sparse `S`.
    SpMM(Arc<Csr>, usize),
    /// `Y = A · W` for a constant CSR `A`.
    CsrMatMul(Arc<Csr>, usize),
    /// `C = A + alpha · B` (same shapes).
    AddScaled(usize, usize, f32),
    /// Row-broadcast bias add: `Y = X + 1·bᵀ`, `b` is `1 × cols`.
    AddBias(usize, usize),
    /// Element-wise `max(0, x)`.
    Relu(usize),
    /// `alpha · x`.
    Scale(usize, f32),
    /// Element-wise product with a constant mask (dropout).
    MaskMul(usize, Matrix),
    /// Mean softmax cross-entropy over `mask` rows of the logits.
    SoftmaxCrossEntropy {
        logits: usize,
        probs: Matrix,
        labels: Vec<usize>,
        mask: Vec<usize>,
    },
    /// `‖WWᵀ − I‖_F` (paper Eq. 6, one layer's term).
    OrthoPenalty(usize),
    /// CMD distance of the activations against server targets (Eq. 11);
    /// `mean_scale` scales the first (mean) term (1 = the paper's Eq. 11).
    Cmd {
        z: usize,
        targets: CmdTargets,
        width: f32,
        mean_scale: f32,
    },
    /// `0.5 ‖W − T‖_F²` against a constant target (FedProx proximal term).
    SqDiff(usize, Matrix),
}

struct Node {
    value: Matrix,
    op: Op,
    requires_grad: bool,
}

/// A gradient tape. Create one per optimisation step, record the forward
/// computation through its methods, call [`Tape::backward`], then read
/// parameter gradients with [`Tape::grad`].
///
/// Every matrix the tape produces — forward values, backward deltas,
/// gradient accumulators — is drawn from its [`Workspace`]. A fresh tape
/// starts with an empty pool; a training loop that threads one workspace
/// through consecutive tapes ([`Tape::with_workspace`] →
/// [`Tape::recycle`]) reuses the previous step's buffers instead of
/// allocating. Pooled and unpooled execution produce bit-identical
/// results: every taken buffer is fully overwritten before it is read.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    ws: Workspace,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty tape drawing its buffers from `ws` (typically the pool
    /// recycled from the previous step's tape).
    pub fn with_workspace(ws: Workspace) -> Self {
        Self {
            nodes: Vec::new(),
            grads: Vec::new(),
            ws,
        }
    }

    /// Tears the tape down, returning every node value, gradient, and op
    /// scratch buffer to the workspace for the next step's tape.
    pub fn recycle(mut self) -> Workspace {
        for g in self.grads.drain(..).flatten() {
            self.ws.recycle(g);
        }
        for node in self.nodes.drain(..) {
            self.ws.recycle(node.value);
            match node.op {
                Op::MaskMul(_, mask) => self.ws.recycle(mask),
                Op::SoftmaxCrossEntropy { probs, .. } => self.ws.recycle(probs),
                Op::SqDiff(_, target) => self.ws.recycle(target),
                _ => {}
            }
        }
        self.ws
    }

    /// Returns a caller-owned matrix (e.g. a gradient taken off the tape)
    /// to this tape's buffer pool.
    pub fn recycle_matrix(&mut self, m: Matrix) {
        self.ws.recycle(m);
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// A pooled `1 × 1` matrix holding `v` (loss nodes, backward seed).
    fn scalar_value(&mut self, v: f32) -> Matrix {
        let mut m = self.ws.take_uninit(1, 1);
        m.as_mut_slice()[0] = v;
        m
    }

    /// Records a constant (no gradient tracked).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Records a constant copied into a pooled buffer — the allocation-free
    /// way to put a borrowed matrix (e.g. a cached `Ŝ·X`) on the tape.
    pub fn constant_copied(&mut self, value: &Matrix) -> Var {
        let v = self.ws.take_copy(value);
        self.push(v, Op::Leaf, false)
    }

    /// Records a trainable parameter (gradient accumulated on backward).
    pub fn param(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// [`Tape::param`] copying from a borrowed matrix into a pooled buffer.
    pub fn param_copied(&mut self, value: &Matrix) -> Var {
        let v = self.ws.take_copy(value);
        self.push(v, Op::Leaf, true)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The scalar value of a `1 × 1` node.
    ///
    /// # Panics
    /// Panics when the node is not `1 × 1`.
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar: node is {:?}", m.shape());
        m[(0, 0)]
    }

    /// The accumulated gradient of a node, if any was propagated.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.grads[v.0].as_ref()
    }

    /// Moves the gradient of `v` off the tape, or returns a pooled zero
    /// matrix of the node's shape when none was propagated. The clone-free
    /// way for a trainer to collect parameter gradients; return the
    /// buffers with [`Tape::recycle_matrix`] after the optimiser step.
    pub fn grad_or_zeros(&mut self, v: Var) -> Matrix {
        match self.grads[v.0].take() {
            Some(g) => g,
            None => {
                let (r, c) = self.nodes[v.0].value.shape();
                self.ws.take_zeroed(r, c)
            }
        }
    }

    /// `C = A · B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        let mut value = self.ws.take_uninit(va.rows(), vb.cols());
        matmul_into(va, vb, &mut value);
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::MatMul(a.0, b.0), rg)
    }

    /// `Y = S · X` with a constant sparse operator (graph propagation).
    pub fn spmm(&mut self, s: Arc<Csr>, x: Var) -> Var {
        let vx = &self.nodes[x.0].value;
        let mut value = self.ws.take_uninit(s.rows(), vx.cols());
        s.spmm_into(vx, &mut value);
        let rg = self.rg(x);
        self.push(value, Op::SpMM(s, x.0), rg)
    }

    /// `Y = A · W` for a constant CSR `A` — a zero-heavy operand such
    /// as the first layer's `Ŝ·X`. Bit-identical to [`Tape::matmul`] on
    /// `constant(a.to_dense())`, without a dense copy of `A` on the tape.
    ///
    /// The forward runs through [`Csr::spmm_into`] and the weight gradient
    /// `Aᵀ·G` through [`Csr::spmm_t_into`], which scatters from `A`'s rows,
    /// so no transpose of `A` is stored. Both accumulate the stored
    /// entries in ascending `k` from `+0.0`. The dense kernels add the
    /// `0 · x` terms too, which leaves such a sum unchanged while `x` is
    /// finite. When `W` (forward) or `G` (backward) holds a NaN or ±inf,
    /// a `0 · x` term is no longer a no-op, so that product runs on
    /// [`Csr::to_dense`] instead.
    pub fn csr_matmul(&mut self, a: &Arc<Csr>, w: Var) -> Var {
        let vw = &self.nodes[w.0].value;
        let mut value = self.ws.take_uninit(a.rows(), vw.cols());
        if vw.all_finite() {
            a.spmm_into(vw, &mut value);
        } else {
            matmul_into(&a.to_dense(), vw, &mut value);
        }
        let rg = self.rg(w);
        self.push(value, Op::CsrMatMul(a.clone(), w.0), rg)
    }

    /// `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.add_scaled(a, b, 1.0)
    }

    /// `a + alpha · b` (shapes must match). The workhorse for combining the
    /// paper's three loss terms (Eq. 12).
    pub fn add_scaled(&mut self, a: Var, b: Var, alpha: f32) -> Var {
        let va = &self.nodes[a.0].value;
        let vb = &self.nodes[b.0].value;
        assert_eq!(va.shape(), vb.shape(), "add_scaled: shape mismatch");
        let mut value = self.ws.take_copy(va);
        axpy(&mut value, alpha, vb);
        let rg = self.rg(a) || self.rg(b);
        self.push(value, Op::AddScaled(a.0, b.0, alpha), rg)
    }

    /// Adds a `1 × cols` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let vx = &self.nodes[x.0].value;
        let vb = &self.nodes[bias.0].value;
        assert_eq!(vb.rows(), 1, "add_bias: bias must be 1 x cols");
        assert_eq!(vx.cols(), vb.cols(), "add_bias: width mismatch");
        let mut value = self.ws.take_copy(vx);
        add_row_broadcast(&mut value, self.nodes[bias.0].value.row(0));
        let rg = self.rg(x) || self.rg(bias);
        self.push(value, Op::AddBias(x.0, bias.0), rg)
    }

    /// Element-wise ReLU.
    pub fn relu(&mut self, x: Var) -> Var {
        let mut value = self.ws.take_copy(&self.nodes[x.0].value);
        value.map_inplace(|v| v.max(0.0));
        let rg = self.rg(x);
        self.push(value, Op::Relu(x.0), rg)
    }

    /// `alpha · x`.
    pub fn scale(&mut self, x: Var, alpha: f32) -> Var {
        let mut value = self.ws.take_copy(&self.nodes[x.0].value);
        value.map_inplace(|v| v * alpha);
        let rg = self.rg(x);
        self.push(value, Op::Scale(x.0, alpha), rg)
    }

    /// Element-wise product with a fixed 0/`1/keep` mask (inverted dropout).
    /// The caller supplies the mask so that randomness stays seeded.
    pub fn mask_mul(&mut self, x: Var, mask: Matrix) -> Var {
        let vx = &self.nodes[x.0].value;
        assert_eq!(vx.shape(), mask.shape(), "mask_mul: shape mismatch");
        let mut value = self.ws.take_copy(vx);
        for (v, &m) in value.as_mut_slice().iter_mut().zip(mask.as_slice()) {
            *v *= m;
        }
        let rg = self.rg(x);
        self.push(value, Op::MaskMul(x.0, mask), rg)
    }

    /// Mean softmax cross-entropy of `logits` rows listed in `mask` against
    /// integer `labels` (`labels.len() == logits.rows()`). Returns a scalar
    /// node. This is the `CE(Z^l, Y)` of the paper's Eq. 12, restricted to
    /// the training mask.
    ///
    /// # Panics
    /// Panics when `mask` is empty or an index/label is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize], mask: &[usize]) -> Var {
        let lm = &self.nodes[logits.0].value;
        let (n, k) = lm.shape();
        assert_eq!(
            labels.len(),
            n,
            "softmax_cross_entropy: labels length mismatch"
        );
        assert!(!mask.is_empty(), "softmax_cross_entropy: empty mask");
        let mut probs = self.ws.take_copy(lm);
        softmax_rows_inplace(&mut probs);
        let mut loss = 0.0f64;
        for &r in mask {
            assert!(r < n, "mask row {r} out of bounds");
            let y = labels[r];
            assert!(y < k, "label {y} out of bounds for {k} classes");
            loss -= (probs[(r, y)].max(1e-12) as f64).ln();
        }
        let value = self.scalar_value((loss / mask.len() as f64) as f32);
        let rg = self.rg(logits);
        self.push(
            value,
            Op::SoftmaxCrossEntropy {
                logits: logits.0,
                probs,
                labels: labels.to_vec(),
                mask: mask.to_vec(),
            },
            rg,
        )
    }

    /// Orthogonality penalty `‖WWᵀ − I‖_F` (one term of paper Eq. 6).
    pub fn ortho_penalty(&mut self, w: Var) -> Var {
        let a = residual_wwt_minus_i(&mut self.ws, &self.nodes[w.0].value);
        let norm = a.frobenius_norm();
        self.ws.recycle(a);
        let value = self.scalar_value(norm);
        let rg = self.rg(w);
        self.push(value, Op::OrthoPenalty(w.0), rg)
    }

    /// CMD distance of activations `z` to server `targets` (paper Eq. 11).
    pub fn cmd_loss(&mut self, z: Var, targets: &CmdTargets, width: f32) -> Var {
        self.cmd_loss_weighted(z, targets, width, 1.0)
    }

    /// [`Tape::cmd_loss`] with the mean-alignment term scaled by
    /// `mean_scale` (component ablation; 1.0 reproduces Eq. 11).
    pub fn cmd_loss_weighted(
        &mut self,
        z: Var,
        targets: &CmdTargets,
        width: f32,
        mean_scale: f32,
    ) -> Var {
        let v = cmd_value_weighted(self.value(z), targets, width, mean_scale);
        let value = self.scalar_value(v);
        let rg = self.rg(z);
        self.push(
            value,
            Op::Cmd {
                z: z.0,
                targets: targets.clone(),
                width,
                mean_scale,
            },
            rg,
        )
    }

    /// Proximal penalty `0.5‖W − T‖_F²` against a constant target (FedProx).
    pub fn sq_diff(&mut self, w: Var, target: &Matrix) -> Var {
        assert_eq!(
            self.value(w).shape(),
            target.shape(),
            "sq_diff: shape mismatch"
        );
        let d = fedomd_tensor::ops::sq_distance(self.value(w), target);
        let target = self.ws.take_copy(target);
        let value = self.scalar_value(0.5 * d);
        let rg = self.rg(w);
        self.push(value, Op::SqDiff(w.0, target), rg)
    }

    /// Runs reverse-mode accumulation from the scalar node `loss`.
    ///
    /// Gradients of earlier backward calls are cleared. May be called on any
    /// `1 × 1` node.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be a scalar node"
        );
        for i in 0..self.grads.len() {
            if let Some(g) = self.grads[i].take() {
                self.ws.recycle(g);
            }
        }
        let seed = self.scalar_value(1.0);
        self.grads[loss.0] = Some(seed);

        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(g) = self.grads[i].take() else {
                continue;
            };
            self.propagate(i, &g);
            self.grads[i] = Some(g);
        }
    }

    fn accumulate(&mut self, idx: usize, delta: Matrix) {
        if !self.nodes[idx].requires_grad {
            self.ws.recycle(delta);
            return;
        }
        match &mut self.grads[idx] {
            Some(g) => axpy(g, 1.0, &delta),
            slot @ None => {
                *slot = Some(delta);
                return;
            }
        }
        self.ws.recycle(delta);
    }

    fn propagate(&mut self, i: usize, g: &Matrix) {
        // Taking op details by value/borrow split: compute deltas first,
        // then accumulate.
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let da = if self.nodes[a].requires_grad {
                    let vb = &self.nodes[b].value;
                    let mut d = self.ws.take_uninit(g.rows(), vb.rows());
                    matmul_nt_into(g, vb, &mut d);
                    Some(d)
                } else {
                    None
                };
                let db = if self.nodes[b].requires_grad {
                    let va = &self.nodes[a].value;
                    let mut d = self.ws.take_uninit(va.cols(), g.cols());
                    matmul_tn_into(va, g, &mut d);
                    Some(d)
                } else {
                    None
                };
                if let Some(d) = da {
                    self.accumulate(a, d);
                }
                if let Some(d) = db {
                    self.accumulate(b, d);
                }
            }
            Op::SpMM(s, x) => {
                let x = *x;
                if self.nodes[x].requires_grad {
                    let st = self.ws.transposed(s);
                    let mut d = self.ws.take_uninit(st.rows(), g.cols());
                    st.spmm_into(g, &mut d);
                    self.accumulate(x, d);
                }
            }
            Op::CsrMatMul(a, w) => {
                let w = *w;
                if self.nodes[w].requires_grad {
                    let mut d = self.ws.take_uninit(a.cols(), g.cols());
                    if g.all_finite() {
                        a.spmm_t_into(g, &mut d);
                    } else {
                        matmul_tn_into(&a.to_dense(), g, &mut d);
                    }
                    self.accumulate(w, d);
                }
            }
            Op::AddScaled(a, b, alpha) => {
                let (a, b, alpha) = (*a, *b, *alpha);
                let da = self.ws.take_copy(g);
                let mut db = self.ws.take_copy(g);
                db.map_inplace(|v| v * alpha);
                self.accumulate(a, da);
                self.accumulate(b, db);
            }
            Op::AddBias(x, bias) => {
                let (x, bias) = (*x, *bias);
                let dx = self.ws.take_copy(g);
                self.accumulate(x, dx);
                if self.nodes[bias].requires_grad {
                    let cols = g.cols();
                    let mut db = self.ws.take_zeroed(1, cols);
                    for row in g.as_slice().chunks(cols) {
                        for (d, &v) in db.as_mut_slice().iter_mut().zip(row) {
                            *d += v;
                        }
                    }
                    self.accumulate(bias, db);
                }
            }
            Op::Relu(x) => {
                let x = *x;
                let mut d = self.ws.take_copy(g);
                relu_backward_inplace(&self.nodes[x].value, &mut d);
                self.accumulate(x, d);
            }
            Op::Scale(x, alpha) => {
                let (x, alpha) = (*x, *alpha);
                let mut d = self.ws.take_copy(g);
                d.map_inplace(|v| v * alpha);
                self.accumulate(x, d);
            }
            Op::MaskMul(x, mask) => {
                let x = *x;
                let mut d = self.ws.take_copy(g);
                for (dv, &m) in d.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                    *dv *= m;
                }
                self.accumulate(x, d);
            }
            Op::SoftmaxCrossEntropy {
                logits,
                probs,
                labels,
                mask,
            } => {
                let logits = *logits;
                let gout = g[(0, 0)];
                let scale = gout / mask.len() as f32;
                let mut d = self.ws.take_zeroed(probs.rows(), probs.cols());
                for &r in mask {
                    let y = labels[r];
                    let drow = d.row_mut(r);
                    for (c, dv) in drow.iter_mut().enumerate() {
                        let p = probs[(r, c)];
                        *dv = scale * (p - if c == y { 1.0 } else { 0.0 });
                    }
                }
                self.accumulate(logits, d);
            }
            Op::OrthoPenalty(w) => {
                let w = *w;
                let gout = g[(0, 0)];
                let a = residual_wwt_minus_i(&mut self.ws, &self.nodes[w].value);
                let norm = a.frobenius_norm();
                if norm > 1e-12 {
                    // d‖A‖_F/dW = 2 A W / ‖A‖_F with A = WWᵀ − I (symmetric).
                    let wm = &self.nodes[w].value;
                    let mut d = self.ws.take_uninit(a.rows(), wm.cols());
                    matmul_into(&a, wm, &mut d);
                    d.map_inplace(|v| v * 2.0 * gout / norm);
                    self.ws.recycle(a);
                    self.accumulate(w, d);
                } else {
                    self.ws.recycle(a);
                }
            }
            Op::Cmd {
                z,
                targets,
                width,
                mean_scale,
            } => {
                let z = *z;
                let gout = g[(0, 0)];
                let d = cmd_grad_weighted(&self.nodes[z].value, targets, *width, gout, *mean_scale);
                self.accumulate(z, d);
            }
            Op::SqDiff(w, target) => {
                let w = *w;
                let gout = g[(0, 0)];
                let mut d = self.ws.take_copy(&self.nodes[w].value);
                for (dv, &t) in d.as_mut_slice().iter_mut().zip(target.as_slice()) {
                    *dv -= t;
                }
                d.map_inplace(|v| v * gout);
                self.accumulate(w, d);
            }
        }
    }
}

/// `A = WWᵀ − I` for the orthogonality penalty, in a pooled buffer.
fn residual_wwt_minus_i(ws: &mut Workspace, w: &Matrix) -> Matrix {
    let mut a = ws.take_uninit(w.rows(), w.rows());
    matmul_nt_into(w, w, &mut a);
    let n = a.rows();
    for i in 0..n {
        a[(i, i)] -= 1.0;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::finite_diff_check;
    use crate::cmd::{cmd_grad, cmd_value};
    use fedomd_tensor::rng::seeded;

    fn randm(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded(seed);
        fedomd_tensor::init::standard_normal(rows, cols, &mut rng).map(|v| v * 0.4)
    }

    /// Builds a scalar loss as sum of all elements via matmul with ones.
    fn sum_to_scalar(t: &mut Tape, v: Var) -> Var {
        let (r, c) = t.value(v).shape();
        let left = t.constant(Matrix::full(1, r, 1.0));
        let right = t.constant(Matrix::full(c, 1, 1.0));
        let tmp = t.matmul(left, v);
        t.matmul(tmp, right)
    }

    #[test]
    fn matmul_gradients_match_fd() {
        let a0 = randm(4, 3, 1);
        let b0 = randm(3, 5, 2);
        let mut t = Tape::new();
        let a = t.param(a0.clone());
        let b = t.param(b0.clone());
        let c = t.matmul(a, b);
        let loss = sum_to_scalar(&mut t, c);
        t.backward(loss);
        let ga = t.grad(a).unwrap().clone();
        let gb = t.grad(b).unwrap().clone();

        finite_diff_check(
            |m| {
                let mut t = Tape::new();
                let a = t.param(m.clone());
                let b = t.constant(b0.clone());
                let c = t.matmul(a, b);
                let l = sum_to_scalar(&mut t, c);
                t.scalar(l)
            },
            &a0,
            &ga,
            1e-3,
            1e-2,
        );
        finite_diff_check(
            |m| {
                let mut t = Tape::new();
                let a = t.constant(a0.clone());
                let b = t.param(m.clone());
                let c = t.matmul(a, b);
                let l = sum_to_scalar(&mut t, c);
                t.scalar(l)
            },
            &b0,
            &gb,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn relu_and_bias_gradients_match_fd() {
        let x0 = randm(5, 4, 3);
        let b0 = randm(1, 4, 4);
        let run = |xm: &Matrix, bm: &Matrix, grads: bool| -> (f32, Option<(Matrix, Matrix)>) {
            let mut t = Tape::new();
            let x = t.param(xm.clone());
            let b = t.param(bm.clone());
            let h = t.add_bias(x, b);
            let h = t.relu(h);
            let l = sum_to_scalar(&mut t, h);
            if grads {
                t.backward(l);
                let gx = t.grad(x).unwrap().clone();
                let gb = t.grad(b).unwrap().clone();
                (t.scalar(l), Some((gx, gb)))
            } else {
                (t.scalar(l), None)
            }
        };
        let (_, g) = run(&x0, &b0, true);
        let (gx, gb) = g.unwrap();
        finite_diff_check(|m| run(m, &b0, false).0, &x0, &gx, 1e-3, 2e-2);
        finite_diff_check(|m| run(&x0, m, false).0, &b0, &gb, 1e-3, 2e-2);
    }

    #[test]
    fn spmm_gradient_matches_fd() {
        let s = Arc::new(fedomd_sparse::normalized_adjacency(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        ));
        let x0 = randm(5, 3, 5);
        let run = |xm: &Matrix| {
            let mut t = Tape::new();
            let x = t.param(xm.clone());
            let y = t.spmm(s.clone(), x);
            let l = sum_to_scalar(&mut t, y);
            (t, x, l)
        };
        let (mut t, x, l) = run(&x0);
        t.backward(l);
        let gx = t.grad(x).unwrap().clone();
        finite_diff_check(
            |m| {
                let (t, _, l) = run(m);
                t.scalar(l)
            },
            &x0,
            &gx,
            1e-3,
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_gradient_matches_fd() {
        let logits0 = randm(6, 3, 7);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let mask = vec![0, 2, 4, 5];
        let run = |m: &Matrix| {
            let mut t = Tape::new();
            let lg = t.param(m.clone());
            let l = t.softmax_cross_entropy(lg, &labels, &mask);
            (t, lg, l)
        };
        let (mut t, lg, l) = run(&logits0);
        t.backward(l);
        let g = t.grad(lg).unwrap().clone();
        finite_diff_check(
            |m| {
                let (t, _, l) = run(m);
                t.scalar(l)
            },
            &logits0,
            &g,
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn cross_entropy_value_is_log_k_at_uniform_logits() {
        let mut t = Tape::new();
        let lg = t.param(Matrix::zeros(4, 5));
        let labels = vec![0, 1, 2, 3];
        let l = t.softmax_cross_entropy(lg, &labels, &[0, 1, 2, 3]);
        assert!((t.scalar(l) - (5.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn ortho_penalty_gradient_matches_fd() {
        let w0 = randm(4, 6, 8);
        let run = |m: &Matrix| {
            let mut t = Tape::new();
            let w = t.param(m.clone());
            let l = t.ortho_penalty(w);
            (t, w, l)
        };
        let (mut t, w, l) = run(&w0);
        t.backward(l);
        let g = t.grad(w).unwrap().clone();
        finite_diff_check(
            |m| {
                let (t, _, l) = run(m);
                t.scalar(l)
            },
            &w0,
            &g,
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn ortho_penalty_is_zero_for_orthonormal_rows() {
        // Rows of the identity are orthonormal: WWᵀ = I.
        let mut t = Tape::new();
        let w = t.param(Matrix::identity(3));
        let l = t.ortho_penalty(w);
        assert!(t.scalar(l) < 1e-6);
        t.backward(l);
        // Zero-norm residual: subgradient is zero (no grad accumulated or zero).
        if let Some(g) = t.grad(w) {
            assert!(g.max_abs() < 1e-6);
        }
    }

    #[test]
    fn sq_diff_gradient_is_w_minus_target() {
        let w0 = randm(3, 3, 9);
        let target = randm(3, 3, 10);
        let mut t = Tape::new();
        let w = t.param(w0.clone());
        let l = t.sq_diff(w, &target);
        t.backward(l);
        let g = t.grad(w).unwrap();
        g.assert_close(&fedomd_tensor::ops::sub(&w0, &target), 1e-5);
    }

    #[test]
    fn cmd_loss_through_tape_matches_direct() {
        let z0 = randm(8, 4, 11);
        let targets = CmdTargets::from_matrix(&randm(10, 4, 12), 5);
        let mut t = Tape::new();
        let z = t.param(z0.clone());
        let l = t.cmd_loss(z, &targets, 1.0);
        assert!((t.scalar(l) - cmd_value(&z0, &targets, 1.0)).abs() < 1e-6);
        t.backward(l);
        t.grad(z)
            .unwrap()
            .assert_close(&cmd_grad(&z0, &targets, 1.0, 1.0), 1e-5);
    }

    #[test]
    fn fan_out_accumulates_gradients() {
        // y = x + x  =>  dy/dx = 2.
        let mut t = Tape::new();
        let x = t.param(Matrix::from_vec(1, 1, vec![3.0]));
        let y = t.add(x, x);
        t.backward(y);
        assert_eq!(t.grad(x).unwrap()[(0, 0)], 2.0);
    }

    #[test]
    fn constants_get_no_gradient() {
        let mut t = Tape::new();
        let x = t.constant(Matrix::from_vec(1, 1, vec![2.0]));
        let w = t.param(Matrix::from_vec(1, 1, vec![4.0]));
        let y = t.matmul(x, w);
        t.backward(y);
        assert!(t.grad(x).is_none());
        assert!(t.grad(w).is_some());
    }

    #[test]
    fn mask_mul_routes_gradient_through_mask() {
        let mut t = Tape::new();
        let x = t.param(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let mask = Matrix::from_vec(1, 3, vec![2.0, 0.0, 2.0]);
        let y = t.mask_mul(x, mask);
        let l = sum_to_scalar(&mut t, y);
        t.backward(l);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[2.0, 0.0, 2.0]);
    }

    #[test]
    fn scale_chain_rule() {
        let mut t = Tape::new();
        let x = t.param(Matrix::from_vec(1, 1, vec![5.0]));
        let y = t.scale(x, -3.0);
        t.backward(y);
        assert_eq!(t.grad(x).unwrap()[(0, 0)], -3.0);
    }

    #[test]
    fn two_layer_gcn_like_graph_end_to_end_fd() {
        // ReLU(Ŝ X W0) W1 -> CE: the exact shape of the paper's local model.
        let s = Arc::new(fedomd_sparse::normalized_adjacency(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        ));
        let x0 = randm(6, 4, 20);
        let w0 = randm(4, 5, 21);
        let w1 = randm(5, 3, 22);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let mask = vec![0, 1, 3, 5];

        let run = |w0m: &Matrix, w1m: &Matrix| {
            let mut t = Tape::new();
            let x = t.constant(x0.clone());
            let w0v = t.param(w0m.clone());
            let w1v = t.param(w1m.clone());
            let h = t.spmm(s.clone(), x);
            let h = t.matmul(h, w0v);
            let h = t.relu(h);
            let h = t.spmm(s.clone(), h);
            let logits = t.matmul(h, w1v);
            let l = t.softmax_cross_entropy(logits, &labels, &mask);
            (t, w0v, w1v, l)
        };
        let (mut t, w0v, w1v, l) = run(&w0, &w1);
        t.backward(l);
        let g0 = t.grad(w0v).unwrap().clone();
        let g1 = t.grad(w1v).unwrap().clone();
        finite_diff_check(
            |m| {
                let (t, _, _, l) = run(m, &w1);
                t.scalar(l)
            },
            &w0,
            &g0,
            1e-3,
            3e-2,
        );
        finite_diff_check(
            |m| {
                let (t, _, _, l) = run(&w0, m);
                t.scalar(l)
            },
            &w1,
            &g1,
            1e-3,
            3e-2,
        );
    }

    #[test]
    #[should_panic(expected = "loss must be a scalar")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.param(Matrix::zeros(2, 2));
        t.backward(x);
    }

    /// Four SGD steps through a graph touching every op, once with a fresh
    /// tape per step and once threading a single workspace through
    /// [`Tape::with_workspace`] / [`Tape::recycle`]. Losses and parameters
    /// must agree to the bit: reused buffers never change a result.
    #[test]
    fn workspace_reuse_is_bit_identical() {
        let s = Arc::new(fedomd_sparse::normalized_adjacency(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        ));
        let x0 = randm(6, 4, 30);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let mask_rows = vec![0, 1, 3, 5];
        let drop_mask = randm(6, 5, 31).map(|v| if v > 0.0 { 2.0 } else { 0.0 });
        let targets = CmdTargets::from_matrix(&randm(8, 3, 32), 3);
        let prox_target = randm(4, 5, 33);

        // One step: forward through every op, backward, SGD update.
        // Returns the loss; mutates the parameters in place.
        let step = |t: &mut Tape, w0: &mut Matrix, w1: &mut Matrix, b: &mut Matrix| -> f32 {
            let x = t.constant_copied(&x0);
            let w0v = t.param_copied(w0);
            let w1v = t.param_copied(w1);
            let bv = t.param_copied(b);
            let h = t.spmm(s.clone(), x);
            let h = t.matmul(h, w0v);
            let h = t.add_bias(h, bv);
            let h = t.relu(h);
            let h = t.mask_mul(h, drop_mask.clone());
            let h2 = t.scale(h, 0.5);
            let h = t.add_scaled(h, h2, 1.0);
            let logits = t.matmul(h, w1v);
            let ce = t.softmax_cross_entropy(logits, &labels, &mask_rows);
            let ortho = t.ortho_penalty(w0v);
            let cmd = t.cmd_loss(logits, &targets, 1.0);
            let prox = t.sq_diff(w0v, &prox_target);
            let l = t.add_scaled(ce, ortho, 0.1);
            let l = t.add_scaled(l, cmd, 0.3);
            let l = t.add_scaled(l, prox, 0.05);
            t.backward(l);
            for (p, v) in [(w0v, &mut *w0), (w1v, &mut *w1), (bv, &mut *b)] {
                let g = t.grad_or_zeros(p);
                axpy(v, -0.05, &g);
                t.recycle_matrix(g);
            }
            t.scalar(l)
        };

        let (mut aw0, mut aw1, mut ab) = (randm(4, 5, 34), randm(5, 3, 35), randm(1, 5, 36));
        let (mut bw0, mut bw1, mut bb) = (aw0.clone(), aw1.clone(), ab.clone());

        let mut ws = Workspace::new();
        for i in 0..4 {
            let mut fresh = Tape::new();
            let la = step(&mut fresh, &mut aw0, &mut aw1, &mut ab);

            let mut pooled = Tape::with_workspace(std::mem::take(&mut ws));
            let lb = step(&mut pooled, &mut bw0, &mut bw1, &mut bb);
            ws = pooled.recycle();

            assert_eq!(la.to_bits(), lb.to_bits(), "loss diverged at step {i}");
            if i > 0 {
                assert!(ws.pooled_buffers() > 0, "workspace never pooled anything");
            }
        }
        for (u, v) in [(&aw0, &bw0), (&aw1, &bw1), (&ab, &bb)] {
            for (x, y) in u.as_slice().iter().zip(v.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
