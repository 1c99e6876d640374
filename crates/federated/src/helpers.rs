//! Shared machinery for every federated algorithm: prediction, argmax,
//! correct-prediction counts, the one weighted fold of every uplink
//! payload ([`Lanes`], and FedAvg's [`UpdateAccumulator`] over it), and
//! the single-client training step.

use fedomd_autograd::{Tape, Var, Workspace};
use fedomd_nn::{ForwardOut, Model, Optimizer};
use fedomd_tensor::Matrix;
use std::fmt;

use crate::client::ClientData;

/// The logits of `model` on `client` ([`Model::infer`]), keeping no tape.
pub fn predict(model: &dyn Model, client: &ClientData) -> Matrix {
    model.infer(&client.input)
}

/// Index of the maximum element of a row (first on ties).
///
/// # Panics
/// Panics on an empty row or non-finite values.
pub fn argmax_row(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax_row: empty row");
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        assert!(v.is_finite(), "argmax_row: non-finite logit {v}");
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// `(correct, total)` over the given local node indices. A row holding a
/// NaN or an infinity (a diverged model's) predicts no class, so it
/// counts as wrong.
pub fn count_correct(logits: &Matrix, labels: &[usize], mask: &[usize]) -> (usize, usize) {
    count_correct_from(logits, 0, labels, mask)
}

/// [`count_correct`] for a shard whose node `r` is row `first + r` of
/// `logits` (its rows of a stacked evaluation).
pub(crate) fn count_correct_from(
    logits: &Matrix,
    first: usize,
    labels: &[usize],
    mask: &[usize],
) -> (usize, usize) {
    let correct = mask
        .iter()
        .filter(|&&r| {
            let row = logits.row(first + r);
            row.iter().all(|v| v.is_finite()) && argmax_row(row) == labels[r]
        })
        .count();
    (correct, mask.len())
}

/// Lane count of [`Lanes`], the fold behind every uplink aggregate. A
/// constant (rather than the worker-pool width) so the reduction order,
/// and therefore the bit pattern of every aggregate, is the same on every
/// machine and at every parallelism level. One lane would give the same
/// bits up to 8 senders only, so every larger cohort's golden pins 8.
pub const AGG_LANES: usize = 8;

/// The one weighted average of Algorithm 1's server: the round-1 means
/// (Eq. 10), the round-2 central moments and the FedAvg weights (Eq. 2)
/// are each a payload of `(rows, cols)` blocks folded here, one payload
/// at a time, so the server never holds the O(clients × model) uploads.
///
/// `Σ_i w_i · v_i` accumulates in `f64` across [`AGG_LANES`] fixed lanes:
/// push `i` lands in lane `i % AGG_LANES`, and [`Self::finish`] adds the
/// lanes in lane order and divides by `Σ w_i` once. The lane a payload
/// maps to depends only on its push index, so the result is a function of
/// the push order alone. The total is exact while the weights are sample
/// counts below 2⁵³.
///
/// Lanes are allocated on first use (lane `i` at push `i`), and `finish`
/// adds only those. That is the sum over all eight lanes, bit for bit: a
/// lane starts at `+0.0`, and under round-to-nearest a sum is `−0.0` only
/// when both operands are, so a lane is never `−0.0` and each skipped
/// `+ 0.0` is the identity.
#[derive(Clone, Debug, Default)]
pub(crate) struct Lanes {
    /// `lanes[lane][element]`, one per push up to [`AGG_LANES`].
    lanes: Vec<Vec<f64>>,
    /// Per-block `(rows, cols)`, fixed by the first push.
    shapes: Vec<(usize, usize)>,
    total: f64,
    pushed: usize,
}

impl Lanes {
    /// Payloads folded so far.
    pub(crate) fn pushed(&self) -> usize {
        self.pushed
    }

    /// Folds one payload: its blocks' `shapes`, and their values as
    /// row-major slices in block order, weighted by `weight`. The first
    /// push fixes the shapes; a payload whose shapes differ, or that holds
    /// a NaN or an infinity, is refused and leaves the fold untouched.
    /// This is the one admission rule for every uplink payload, on every
    /// transport: a refused payload is a hostile or diverged peer's, and
    /// degrades the round like a lost frame.
    pub(crate) fn push<'a>(
        &mut self,
        shapes: impl ExactSizeIterator<Item = (usize, usize)> + Clone,
        values: impl Iterator<Item = &'a [f32]> + Clone,
        weight: f64,
    ) -> Result<(), UpdateShapeError> {
        assert!(weight >= 0.0, "Lanes: negative weight");
        if self.pushed > 0 {
            check_shapes(&self.shapes, shapes.clone())?;
        }
        // `fold` rather than `all` so the inner loop has no early exit and
        // vectorises.
        if !values
            .clone()
            .all(|s| s.iter().fold(true, |ok, v| ok & v.is_finite()))
        {
            return Err(UpdateShapeError::NonFinite);
        }
        if self.pushed == 0 {
            self.shapes = shapes.collect();
        }
        // Block by block, so each inner loop runs over one slice.
        if let Some(lane) = self.lanes.get_mut(self.pushed % AGG_LANES) {
            let mut rest = lane.as_mut_slice();
            for s in values {
                let (head, tail) = rest.split_at_mut(s.len());
                for (a, &v) in head.iter_mut().zip(s) {
                    *a += weight * f64::from(v);
                }
                rest = tail;
            }
        } else {
            let len = self.shapes.iter().map(|&(r, c)| r * c).sum();
            let mut lane = Vec::with_capacity(len);
            for s in values {
                lane.extend(s.iter().map(|&v| 0.0 + weight * f64::from(v)));
            }
            self.lanes.push(lane);
        }
        self.total += weight;
        self.pushed += 1;
        Ok(())
    }

    /// The weighted average, flat in push order: the lanes added in lane
    /// order, divided by the total weight. `None` when nothing was pushed
    /// or every weight was zero.
    pub(crate) fn finish(self) -> Option<Vec<f32>> {
        if self.total <= 0.0 {
            return None;
        }
        let mut lanes = self.lanes.into_iter();
        let mut sum = lanes.next()?;
        for lane in lanes {
            for (s, v) in sum.iter_mut().zip(lane) {
                *s += v;
            }
        }
        Some(sum.into_iter().map(|s| (s / self.total) as f32).collect())
    }

    /// [`Self::finish`], cut back into the pushed blocks, each built by
    /// `block((rows, cols), values)`.
    pub(crate) fn finish_blocks<T>(
        mut self,
        mut block: impl FnMut((usize, usize), Vec<f32>) -> T,
    ) -> Option<Vec<T>> {
        let shapes = std::mem::take(&mut self.shapes);
        let mut flat = self.finish()?.into_iter();
        let blocks = shapes
            .into_iter()
            .map(|(r, c)| block((r, c), flat.by_ref().take(r * c).collect()));
        Some(blocks.collect())
    }
}

/// Streaming FedAvg (paper Eq. 2 / Algorithm 1 line 27): [`Lanes`] over
/// parameter lists, each matrix one block.
#[derive(Clone, Debug, Default)]
pub struct UpdateAccumulator(Lanes);

impl UpdateAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Updates folded so far.
    pub fn pushed(&self) -> usize {
        self.0.pushed()
    }

    /// Folds one client's parameters with FedAvg weight `weight`, or
    /// refuses them by [`Lanes`]' admission rule.
    pub fn try_push(&mut self, params: &[Matrix], weight: f64) -> Result<(), UpdateShapeError> {
        let shapes = params.iter().map(Matrix::shape);
        self.0
            .push(shapes, params.iter().map(Matrix::as_slice), weight)
    }

    /// [`Self::try_push`] for callers whose updates cannot be refused.
    ///
    /// # Panics
    /// Panics where [`Self::try_push`] would return an error.
    pub fn push(&mut self, params: &[Matrix], weight: f64) {
        #[expect(clippy::panic, reason = "documented contract (see `# Panics`)")]
        if let Err(e) = self.try_push(params, weight) {
            panic!("UpdateAccumulator: {e}");
        }
    }

    /// The averaged model. `None` when nothing was pushed (or every weight
    /// was zero): the caller keeps the previous global model, exactly as
    /// an empty round does.
    pub fn finish(self) -> Option<Vec<Matrix>> {
        self.0
            .finish_blocks(|(rows, cols), data| Matrix::from_vec(rows, cols, data))
    }
}

/// Why an uplink payload was refused: its blocks do not match the
/// expected shapes, or it holds a value no average can absorb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateShapeError {
    /// The payload carries a different number of blocks.
    Arity { expected: usize, got: usize },
    /// Block `param` has a different `(rows, cols)`.
    Shape {
        param: usize,
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// Block `param`'s rows differ in length (a moment layer whose orders
    /// do not share one dimension).
    Ragged { param: usize },
    /// The payload carries a NaN or an infinity.
    NonFinite,
}

/// Checks a payload's block shapes against `expected`, in order.
pub fn check_shapes(
    expected: &[(usize, usize)],
    got: impl ExactSizeIterator<Item = (usize, usize)>,
) -> Result<(), UpdateShapeError> {
    if got.len() != expected.len() {
        return Err(UpdateShapeError::Arity {
            expected: expected.len(),
            got: got.len(),
        });
    }
    for (param, (got, &expected)) in got.zip(expected).enumerate() {
        if got != expected {
            return Err(UpdateShapeError::Shape {
                param,
                expected,
                got,
            });
        }
    }
    Ok(())
}

impl fmt::Display for UpdateShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateShapeError::Arity { expected, got } => {
                write!(f, "param arity mismatch: expected {expected}, got {got}")
            }
            UpdateShapeError::Shape {
                param,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch at param {param}: expected {expected:?}, got {got:?}"
            ),
            UpdateShapeError::Ragged { param } => write!(f, "ragged rows in param {param}"),
            UpdateShapeError::NonFinite => write!(f, "non-finite value"),
        }
    }
}

impl std::error::Error for UpdateShapeError {}

/// One local training step on the forward pass `tape` and `out` record:
/// CE over the train mask plus the `extra_loss` terms (already weighted),
/// backward, the `adjust_grads` hook (SCAFFOLD's control variates), and an
/// optimiser step. Returns the tape's recycled buffer pool, which the
/// client's next tape draws from, and the total scalar loss.
pub(crate) fn finish_step(
    mut tape: Tape,
    out: &ForwardOut,
    model: &mut dyn Model,
    client: &ClientData,
    opt: &mut dyn Optimizer,
    extra_loss: impl FnOnce(&mut Tape, &ForwardOut) -> Vec<Var>,
    adjust_grads: impl FnOnce(&mut [Matrix]),
) -> (Workspace, f32) {
    let mut loss = tape.softmax_cross_entropy(out.logits, &client.labels, &client.splits.train);
    for term in extra_loss(&mut tape, out) {
        loss = tape.add(loss, term);
    }
    descend(&mut tape, out, loss, model, opt, adjust_grads);
    let scalar = tape.scalar(loss);
    (tape.recycle(), scalar)
}

/// Backward from `loss`, the gradient hook, and one optimiser step on
/// `model` followed by its post-step hook. Every gradient and parameter
/// buffer goes back to the tape's pool.
pub(crate) fn descend(
    tape: &mut Tape,
    out: &ForwardOut,
    loss: Var,
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    adjust_grads: impl FnOnce(&mut [Matrix]),
) {
    tape.backward(loss);
    let mut grads: Vec<Matrix> = out
        .param_vars
        .iter()
        .map(|&v| tape.grad_or_zeros(v))
        .collect();
    adjust_grads(&mut grads);
    let mut params = model.params();
    opt.step(&mut params, &grads);
    model.set_params(&params);
    model.post_step();
    for g in grads {
        tape.recycle_matrix(g);
    }
    for p in params {
        tape.recycle_matrix(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{setup_federation, FederationConfig};
    use crate::session::EvalCounts;
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_nn::{Mlp, Sgd};
    use fedomd_tensor::rng::seeded;

    fn one_client() -> ClientData {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        setup_federation(&ds, &FederationConfig::mini(1, 0)).remove(0)
    }

    #[test]
    fn finish_step_reduces_loss() {
        let client = one_client();
        let mut rng = seeded(1);
        let mut model = Mlp::new(client.input.n_features(), 16, 7, &mut rng);
        let mut opt = Sgd::new(0.1, 0.0);
        let mut ws = Workspace::new();
        let mut losses = Vec::new();
        for _ in 0..31 {
            let mut tape = Tape::with_workspace(std::mem::take(&mut ws));
            let out = model.forward(&mut tape, &client.input);
            let (pool, loss) = finish_step(
                tape,
                &out,
                &mut model,
                &client,
                &mut opt,
                |_, _| vec![],
                |_| {},
            );
            ws = pool;
            losses.push(loss);
        }
        let (first, last) = (losses[0], losses[30]);
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(ws.pooled_buffers() > 0, "steps should recycle buffers");
    }

    #[test]
    fn eval_counts_give_fractions_in_unit_interval() {
        let client = one_client();
        let mut rng = seeded(2);
        let model = Mlp::new(client.input.n_features(), 8, 7, &mut rng);
        let counts = EvalCounts::of(&predict(&model, &client), &client);
        assert_eq!(counts.val.1, client.splits.val.len() as u64);
        assert_eq!(counts.test.1, client.splits.test.len() as u64);
        let (val, test) = counts.accuracy();
        assert!((0.0..=1.0).contains(&val));
        assert!((0.0..=1.0).contains(&test));
    }

    #[test]
    fn argmax_basic_and_ties() {
        assert_eq!(argmax_row(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax_row(&[1.0, 1.0]), 0); // first wins ties
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn argmax_rejects_nan() {
        let _ = argmax_row(&[0.0, f32::NAN]);
    }

    #[test]
    fn count_correct_basics() {
        let logits = Matrix::from_vec(2, 2, vec![2.0, 1.0, 0.0, 5.0]);
        let labels = vec![0, 0];
        let (c, t) = count_correct(&logits, &labels, &[0, 1]);
        assert_eq!((c, t), (1, 2));
    }

    /// A row with a NaN or an infinity counts as wrong, even where its
    /// finite entries would pick the label.
    #[test]
    fn a_non_finite_row_counts_as_wrong() {
        let logits = Matrix::from_vec(
            4,
            2,
            vec![
                2.0,
                f32::NAN,
                f32::INFINITY,
                0.0,
                1.0,
                f32::NEG_INFINITY,
                3.0,
                1.0,
            ],
        );
        let labels = vec![0; 4];
        assert_eq!(count_correct(&logits, &labels, &[0, 1, 2, 3]), (1, 4));
    }

    #[test]
    fn update_accumulator_weighted_mean() {
        let a = vec![Matrix::from_vec(1, 1, vec![0.0])];
        let b = vec![Matrix::from_vec(1, 1, vec![10.0])];
        let mut acc = UpdateAccumulator::new();
        acc.push(&a, 3.0);
        acc.push(&b, 1.0);
        let avg = acc.finish().expect("two updates");
        assert!((avg[0][(0, 0)] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn update_accumulator_empty_yields_none() {
        assert!(UpdateAccumulator::new().finish().is_none());
        // All-zero weights keep the old global too.
        let mut acc = UpdateAccumulator::new();
        acc.push(&[Matrix::from_vec(1, 1, vec![4.0])], 0.0);
        assert!(acc.finish().is_none());
    }

    #[test]
    fn try_push_rejects_a_mis_shaped_update_and_stays_usable() {
        let good = vec![Matrix::from_vec(1, 2, vec![1.0, 2.0])];
        let mut acc = UpdateAccumulator::new();
        acc.try_push(&good, 1.0)
            .expect("first fold fixes the shape");
        assert_eq!(
            acc.try_push(&[Matrix::from_vec(2, 1, vec![9.0, 9.0])], 1.0),
            Err(UpdateShapeError::Shape {
                param: 0,
                expected: (1, 2),
                got: (2, 1)
            })
        );
        assert_eq!(
            acc.try_push(&[], 1.0),
            Err(UpdateShapeError::Arity {
                expected: 1,
                got: 0
            })
        );
        // A rejected update leaves no trace: count, weight and sums.
        acc.try_push(&[Matrix::from_vec(1, 2, vec![3.0, 4.0])], 1.0)
            .expect("well-formed");
        assert_eq!(acc.pushed(), 2);
        let avg = acc.finish().expect("two updates");
        assert_eq!(avg[0].as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn try_push_refuses_a_non_finite_update_without_fixing_shapes() {
        let mut acc = UpdateAccumulator::new();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(
                acc.try_push(&[Matrix::from_vec(2, 1, vec![bad, 0.0])], 1.0),
                Err(UpdateShapeError::NonFinite)
            );
        }
        // The refused first push fixed nothing: a different shape folds.
        acc.try_push(&[Matrix::from_vec(1, 2, vec![3.0, 4.0])], 1.0)
            .expect("well-formed");
        assert_eq!(acc.pushed(), 1);
        let avg = acc.finish().expect("one update");
        assert_eq!(avg[0].as_slice(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch at param 0")]
    fn push_panics_on_a_mis_shaped_in_process_update() {
        let mut acc = UpdateAccumulator::new();
        acc.push(&[Matrix::from_vec(1, 2, vec![1.0, 2.0])], 1.0);
        acc.push(&[Matrix::from_vec(2, 1, vec![1.0, 2.0])], 1.0);
    }
}
