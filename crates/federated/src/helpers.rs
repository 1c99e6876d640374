//! Shared machinery for every federated algorithm: prediction, argmax,
//! correct-prediction counts, the FedAvg reduction (batch [`fedavg`] and streaming
//! [`UpdateAccumulator`]), and the single-client training step.

use fedomd_autograd::{Tape, Var, Workspace};
use fedomd_nn::{ForwardOut, Model, Optimizer};
use fedomd_tensor::Matrix;
use std::fmt;

use crate::client::ClientData;

/// Forward pass without gradient bookkeeping; returns the logits matrix.
pub fn predict(model: &dyn Model, client: &ClientData) -> Matrix {
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &client.input);
    tape.value(out.logits).clone()
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

/// `(correct, total)` over the given local node indices.
pub fn count_correct(logits: &Matrix, labels: &[usize], mask: &[usize]) -> (usize, usize) {
    let correct = mask
        .iter()
        .filter(|&&r| argmax_row(logits.row(r)) == labels[r])
        .count();
    (correct, mask.len())
}

/// Weighted FedAvg: `W̄ = Σ_i λ_i W_i` with `λ` normalised to sum to 1
/// (paper Eq. 2 / Algorithm 1 line 27).
///
/// # Panics
/// Panics on empty input, arity/shape mismatch, or non-positive total
/// weight.
pub fn fedavg(param_sets: &[Vec<Matrix>], weights: &[f64]) -> Vec<Matrix> {
    assert!(!param_sets.is_empty(), "fedavg: no clients");
    assert_eq!(
        param_sets.len(),
        weights.len(),
        "fedavg: weights arity mismatch"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "fedavg: total weight must be positive");
    let arity = param_sets[0].len();
    let mut out: Vec<Matrix> = param_sets[0]
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();
    for (set, &w) in param_sets.iter().zip(weights) {
        assert_eq!(set.len(), arity, "fedavg: param arity mismatch");
        let lambda = (w / total) as f32;
        for (acc, p) in out.iter_mut().zip(set) {
            assert_eq!(acc.shape(), p.shape(), "fedavg: shape mismatch");
            fedomd_tensor::ops::axpy(acc, lambda, p);
        }
    }
    out
}

/// Fixed lane count of every streaming aggregate: [`UpdateAccumulator`]
/// and [`crate::protocol`]'s statistics accumulators. A constant
/// (rather than the worker-pool width) so the reduction order, and
/// therefore the bit pattern of every aggregate, is the same on every
/// machine and at every parallelism level.
pub const AGG_LANES: usize = 8;

/// Streaming FedAvg (paper Eq. 2 / Algorithm 1 line 27): folds one
/// client's parameter set at a time so the server never materialises the
/// O(clients × model) vector of updates — peak memory is
/// `AGG_LANES × model` f64 partials, O(model).
///
/// Accumulates `Σ_i w_i · W_i` in f64 across [`AGG_LANES`] fixed lanes
/// (push `i` lands in lane `i % AGG_LANES`); [`finish`](Self::finish)
/// folds the lanes in lane order and divides by `Σ w_i` once. The lane an
/// update maps to depends only on its push index, so the result is a
/// function of the push order alone.
#[derive(Clone, Debug, Default)]
pub struct UpdateAccumulator {
    /// `lanes[lane][param][element]`.
    lanes: Vec<Vec<Vec<f64>>>,
    /// Per-parameter `(rows, cols)`, fixed by the first push.
    shapes: Vec<(usize, usize)>,
    total_weight: f64,
    pushed: usize,
}

/// Folds one parameter set into a lane partial: `acc += w · params`.
fn fold_update(acc: &mut [Vec<f64>], params: &[Matrix], weight: f64) {
    for (lane_param, p) in acc.iter_mut().zip(params) {
        for (a, &v) in lane_param.iter_mut().zip(p.as_slice()) {
            *a += weight * v as f64;
        }
    }
}

impl UpdateAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Updates folded so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    fn init_shape(&mut self, params: &[Matrix]) {
        self.shapes = params.iter().map(|p| p.shape()).collect();
        self.lanes = (0..AGG_LANES)
            .map(|_| {
                self.shapes
                    .iter()
                    .map(|&(r, c)| vec![0.0f64; r * c])
                    .collect()
            })
            .collect();
    }

    /// Folds one client's parameters with FedAvg weight `weight`. The
    /// first fold fixes the expected shapes; a later update that does not
    /// match, or any update holding a NaN or an infinity, is refused and
    /// leaves the accumulator untouched. This is the one admission rule
    /// for weight updates, on every transport: a refused update is a
    /// hostile or diverged peer, and degrades the round like a lost frame.
    pub fn try_push(&mut self, params: &[Matrix], weight: f64) -> Result<(), UpdateShapeError> {
        assert!(weight >= 0.0, "UpdateAccumulator: negative weight");
        if self.pushed > 0 {
            check_shapes(&self.shapes, params.iter().map(Matrix::shape))?;
        }
        if !params.iter().all(Matrix::all_finite) {
            return Err(UpdateShapeError::NonFinite);
        }
        if self.pushed == 0 {
            self.init_shape(params);
        }
        let lane = self.pushed % AGG_LANES;
        fold_update(&mut self.lanes[lane], params, weight);
        self.total_weight += weight;
        self.pushed += 1;
        Ok(())
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

    /// Folds the lane partials in lane order, divides by the total weight,
    /// and returns the averaged model. `None` when nothing was pushed (or
    /// every weight was zero) — the caller keeps the previous global
    /// model, exactly as an empty round does today.
    pub fn finish(self) -> Option<Vec<Matrix>> {
        if self.pushed == 0 || self.total_weight <= 0.0 {
            return None;
        }
        let total = self.total_weight;
        Some(
            self.shapes
                .iter()
                .enumerate()
                .map(|(pi, &(rows, cols))| {
                    let data = (0..rows * cols)
                        .map(|e| {
                            let mut sum = 0.0f64;
                            for lane in &self.lanes {
                                sum += lane[pi][e];
                            }
                            (sum / total) as f32
                        })
                        .collect();
                    Matrix::from_vec(rows, cols, data)
                })
                .collect(),
        )
    }
}

/// Why a parameter list was refused: its tensors do not match the
/// expected shapes, or it holds a value no average can absorb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateShapeError {
    /// The update carries a different number of parameter matrices.
    Arity { expected: usize, got: usize },
    /// Parameter `param` has a different `(rows, cols)`.
    Shape {
        param: usize,
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// The update carries a NaN or an infinity.
    NonFinite,
}

/// Checks a parameter list's `(rows, cols)` against `expected`, in order.
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
            UpdateShapeError::NonFinite => write!(f, "non-finite parameter value"),
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
    fn fedavg_of_identical_sets_is_identity() {
        let p = vec![Matrix::from_vec(1, 2, vec![1.0, 2.0])];
        let avg = fedavg(&[p.clone(), p.clone()], &[1.0, 1.0]);
        avg[0].assert_close(&p[0], 1e-6);
    }

    #[test]
    fn fedavg_weighted_mean() {
        let a = vec![Matrix::from_vec(1, 1, vec![0.0])];
        let b = vec![Matrix::from_vec(1, 1, vec![10.0])];
        let avg = fedavg(&[a, b], &[3.0, 1.0]);
        assert!((avg[0][(0, 0)] - 2.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "no clients")]
    fn fedavg_rejects_empty() {
        let _ = fedavg(&[], &[]);
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
    fn update_accumulator_sits_within_tolerance_of_batch_fedavg() {
        let mut rng = seeded(11);
        use rand::Rng;
        let batch: Vec<(Vec<Matrix>, f64)> = (0..23)
            .map(|_| {
                let params = vec![
                    Matrix::from_vec(2, 3, (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect()),
                    Matrix::from_vec(1, 4, (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect()),
                ];
                (params, rng.gen_range(0.0..3.0f64))
            })
            .collect();
        let mut acc = UpdateAccumulator::new();
        for (params, w) in &batch {
            acc.push(params, *w);
        }
        let streamed = acc.finish().expect("23 updates");
        let sets: Vec<Vec<Matrix>> = batch.iter().map(|(p, _)| p.clone()).collect();
        let weights: Vec<f64> = batch.iter().map(|(_, w)| *w).collect();
        let reference = fedavg(&sets, &weights);
        for (a, b) in streamed.iter().zip(&reference) {
            a.assert_close(b, 1e-5);
        }
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
