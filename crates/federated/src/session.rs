//! The two halves of Algorithm 1 as I/O-free state: [`ClientSession`] is
//! one party's side, [`ServerRound`] the server's.
//!
//! Each protocol step is one method that takes the payload it needs and
//! returns the payload it produces. Neither half touches a `Channel`, a
//! socket or the clock, so Algorithm 1 is written out once, here. The
//! three round loops only move frames between these methods and account
//! their bytes: the in-process sweep ([`crate::engine::run`]), and
//! `fedomd-core`'s TCP server and TCP client.
//!
//! A session trains whatever its [`Strategy`] names: FedOMD's Ortho-GCN on
//! Eq. 12, or a baseline's model on CE (plus FedProx's proximal term, or
//! SCAFFOLD's control variates). The baselines skip the statistics steps
//! (lines 4–18), and LocGCN the weight exchange too.
//!
//! | Algorithm 1 | client | server |
//! |-------------|--------|--------|
//! | 3 | [`ClientSession::forward`] | |
//! | 4–11 | [`ClientSession::means`] | [`ServerRound::admit`], [`ServerRound::close_means`] |
//! | 12–18 | [`ClientSession::moments`] | [`ServerRound::admit`], [`ServerRound::close_moments`] |
//! | 19–20 | [`ClientSession::step`] | |
//! | 21, 25–29 | [`ClientSession::weights`], [`ClientSession::install`] | [`ServerRound::admit`], [`ServerRound::close_updates`] |
//! | eval | [`ClientSession::eval_counts`] | [`EvalCounts::accuracy`] |

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::AddAssign;

use fedomd_autograd::{CmdTargets, Tape, Var, Workspace};
use fedomd_nn::{Adam, ForwardOut, Model, Optimizer, Sgd};
use fedomd_telemetry::{RoundEvent, RoundObserver};
use fedomd_tensor::ops::axpy;
use fedomd_tensor::rng::derive;
use fedomd_tensor::Matrix;
use fedomd_transport::{from_tensors, to_tensors, Envelope, Payload, Tensor};

use crate::baselines::{fedlit, fedsage, Baseline};
use crate::client::ClientData;
use crate::config::{FedOmdConfig, TrainConfig};
use crate::engine::{
    build_fedomd_model, build_model, DriverState, ModelKind, OptimState, ResumeState, Strategy,
};
use crate::helpers::{
    check_shapes, count_correct, descend, finish_step, predict, UpdateAccumulator, UpdateShapeError,
};
use crate::protocol::{
    build_targets, client_means, client_moments_about, GlobalStats, MeanAccumulator,
    MomentAccumulator, ProtocolError,
};

/// One client's training state, owned by the caller so it survives
/// transport reconnects.
pub struct ClientSession {
    strategy: Strategy,
    /// Local passes a round: one for FedOMD, [`Baseline::passes`] for a
    /// baseline.
    passes: usize,
    /// FedProx's proximal coefficient `μ` (0 disables the term).
    prox_mu: f32,
    /// The local model.
    pub(crate) model: Box<dyn Model>,
    /// The local optimiser (per-client state, never shipped).
    opt: LocalOptim,
    /// Reusable autograd buffer pool.
    ws: Workspace,
    /// The parameter shapes of an upload and of the global model: the
    /// model's, and for SCAFFOLD the model's twice (`w ‖ Δc`).
    shapes: Vec<(usize, usize)>,
    /// The forward pass of the current weights, from [`Self::forward`] or
    /// a kept [`Self::eval_counts`] until [`Self::step`] consumes it or
    /// [`Self::install`] / [`Self::restore`] drop it. Never checkpointed:
    /// it is a pure function of the weights.
    pending: Option<(Tape, ForwardOut)>,
}

impl ClientSession {
    /// A fresh FedOMD session on `client`: the common init every process
    /// builds ([`crate::engine::build_fedomd_model`]), which is what lets
    /// a deployment's clients build their sessions one by one. Baseline
    /// sessions come from [`Self::federation`].
    pub fn new(
        cfg: &TrainConfig,
        omd: &FedOmdConfig,
        client: &ClientData,
        n_classes: usize,
    ) -> Self {
        let model = build_fedomd_model(cfg, omd, client.input.n_features(), n_classes);
        Self::with_model(cfg, &Strategy::FedOmd(*omd), model, 1.0)
    }

    /// One fresh session per client, and the shards they train and
    /// evaluate on (the clients' own, or FedSage+'s mended graphs). A
    /// strategy that starts every client from one common model builds it
    /// once and clones it; LocGCN builds independent models. FedLIT and
    /// FedSage+ first run their federated set-up exchange, timed as
    /// `PhaseDone` segments on `obs`, its frames reported to `obs` as
    /// `FrameSent`; it is a pure function of the seed and the shards, so a
    /// resumed run re-derives it.
    pub(crate) fn federation<'c>(
        cfg: &TrainConfig,
        strategy: &Strategy,
        clients: &'c [ClientData],
        n_classes: usize,
        obs: &mut dyn RoundObserver,
    ) -> (Vec<Self>, Cow<'c, [ClientData]>) {
        let (shards, models) = initial_models(cfg, strategy, clients, n_classes, obs);
        let m = clients.len();
        let share = cfg.cohort.cohort_size(m) as f32 / m as f32;
        let sessions = models
            .map(|model| Self::with_model(cfg, strategy, model, share))
            .collect();
        (sessions, shards)
    }

    /// A session around `model`; `share` is the fraction of the federation
    /// one round's cohort is (SCAFFOLD's server-variate step).
    fn with_model(
        cfg: &TrainConfig,
        strategy: &Strategy,
        model: Box<dyn Model>,
        share: f32,
    ) -> Self {
        let mut shapes: Vec<(usize, usize)> = model.params().iter().map(Matrix::shape).collect();
        let adam = || LocalOptim::Adam(Adam::new(cfg.lr, cfg.weight_decay));
        let (passes, prox_mu, opt) = match strategy {
            Strategy::FedOmd(_) => (1, 0.0, adam()),
            Strategy::Baseline(b) => {
                let opt = if *b == Baseline::Scaffold {
                    shapes.extend_from_within(..);
                    LocalOptim::Scaffold(Box::new(Scaffold::new(cfg, &model.params(), share)))
                } else {
                    adam()
                };
                (b.passes(cfg), b.prox_mu(), opt)
            }
        };
        Self {
            strategy: *strategy,
            passes,
            prox_mu,
            shapes,
            model,
            opt,
            ws: Workspace::new(),
            pending: None,
        }
    }

    /// Restores checkpointed client state. The Newton–Schulz cadence counts
    /// optimiser steps, so the counter is restored with the parameters.
    /// Returns `false`, touching nothing, when `optim` belongs to another
    /// optimiser.
    pub(crate) fn restore(&mut self, params: &[Matrix], steps: u64, optim: OptimState) -> bool {
        match (&mut self.opt, optim) {
            (LocalOptim::Adam(adam), OptimState::Adam(state)) => adam.set_state(state),
            (
                LocalOptim::Scaffold(sc),
                OptimState::Scaffold {
                    velocity,
                    local,
                    global,
                },
            ) => {
                sc.sgd.set_state(velocity);
                (sc.local, sc.global) = (local, global);
            }
            (LocalOptim::Adam(_), OptimState::Scaffold { .. })
            | (LocalOptim::Scaffold(_), OptimState::Adam(_)) => return false,
        }
        self.model.set_params(params);
        self.model.set_steps(steps as usize);
        self.pending = None;
        true
    }

    /// The optimiser state a run checkpoint stores.
    pub(crate) fn optim_state(&self) -> OptimState {
        match &self.opt {
            LocalOptim::Adam(adam) => OptimState::Adam(adam.state()),
            LocalOptim::Scaffold(sc) => OptimState::Scaffold {
                velocity: sc.sgd.state(),
                local: sc.local.clone(),
                global: sc.global.clone(),
            },
        }
    }

    /// Line 3: records this round's forward pass on a tape drawn from the
    /// session's buffer pool — unless the pass of these weights is already
    /// pending, kept by the last round's [`Self::eval_counts`].
    pub fn forward(&mut self, client: &ClientData) {
        self.pending_forward(client);
    }

    fn pending_forward(&mut self, client: &ClientData) -> &(Tape, ForwardOut) {
        let (model, ws) = (&self.model, &mut self.ws);
        self.pending.get_or_insert_with(|| {
            let mut tape = Tape::with_workspace(std::mem::take(ws));
            let out = model.forward(&mut tape, &client.input);
            (tape, out)
        })
    }

    fn hidden(&self) -> Option<Vec<&Matrix>> {
        let (tape, out) = self.pending.as_ref()?;
        Some(out.hidden.iter().map(|&h| tape.value(h)).collect())
    }

    /// Lines 4–7: the `StatsRound1` upload, per-layer activation means and
    /// the local sample count. `None` before [`Self::forward`].
    pub fn means(&self) -> Option<Payload> {
        let hidden = self.hidden()?;
        Some(Payload::StatsRound1 {
            means: client_means(&hidden),
            n_samples: hidden.first().map_or(0, |z| z.rows()) as u64,
        })
    }

    /// Lines 12–13: the `StatsRound2` upload, central moments about the
    /// global means. `None` before [`Self::forward`], and for a baseline
    /// session, which has no moment order.
    pub fn moments(&self, global_means: &[Vec<f32>]) -> Option<Payload> {
        let Strategy::FedOmd(omd) = &self.strategy else {
            return None;
        };
        let hidden = self.hidden()?;
        Some(Payload::StatsRound2 {
            moments: client_moments_about(&hidden, global_means, omd.max_moment),
        })
    }

    /// Lines 19–20: finishes the pending forward pass with a backward pass
    /// and an optimiser step, then takes the strategy's remaining passes,
    /// each a forward, backward and step. Returns one reading per pass;
    /// `None` before [`Self::forward`].
    ///
    /// FedOMD's objective is `CE + α·L_ortho + β·d_CMD`; without this
    /// round's global statistics the client trains without the CMD term.
    /// A baseline's is CE, plus FedProx's `μ·Σ‖W − W₀‖²` anchored on the
    /// weights this round's forward pass ran on. SCAFFOLD corrects every
    /// gradient by `c − c_i` and then refreshes `c_i`.
    pub fn step(
        &mut self,
        client: &ClientData,
        stats: Option<&GlobalStats>,
    ) -> Option<Vec<StepLosses>> {
        let (tape, out) = self.pending.take()?;
        let model = &mut self.model;
        let (opt, drift) = match &mut self.opt {
            LocalOptim::Adam(adam) => (adam as &mut dyn Optimizer, None),
            LocalOptim::Scaffold(sc) => (
                &mut sc.sgd as &mut dyn Optimizer,
                Some((&sc.local, &sc.global)),
            ),
        };
        match &self.strategy {
            Strategy::FedOmd(omd) => {
                let targets = stats.map(build_targets);
                let (ws, losses) = optimise_client(
                    omd,
                    tape,
                    &out,
                    model.as_mut(),
                    opt,
                    client,
                    targets.as_deref(),
                );
                self.ws = ws;
                Some(vec![losses])
            }
            Strategy::Baseline(_) => {
                // The anchor is copied only when the term is on: an empty
                // anchor adds no terms.
                let anchor = if self.prox_mu > 0.0 {
                    model.params()
                } else {
                    Vec::new()
                };
                let start = drift.is_some().then(|| model.params());
                let mu = self.prox_mu;
                let prox = |tape: &mut Tape, out: &ForwardOut| -> Vec<Var> {
                    out.param_vars
                        .iter()
                        .zip(&anchor)
                        .map(|(&w, w0)| {
                            let d = tape.sq_diff(w, w0);
                            tape.scale(d, mu)
                        })
                        .collect()
                };
                let correct = |grads: &mut [Matrix]| {
                    if let Some((local, global)) = drift {
                        correct_drift(grads, local, global);
                    }
                };
                let mut passes = Vec::with_capacity(self.passes);
                let (mut tape, mut out) = (tape, out);
                loop {
                    let (ws, total) =
                        finish_step(tape, &out, model.as_mut(), client, opt, prox, correct);
                    passes.push(StepLosses::total_only(total));
                    if passes.len() >= self.passes {
                        self.ws = ws;
                        break;
                    }
                    tape = Tape::with_workspace(ws);
                    out = model.forward(&mut tape, &client.input);
                }
                if let (LocalOptim::Scaffold(sc), Some(start)) = (&mut self.opt, start) {
                    sc.refresh(&start, &model.params(), self.passes);
                }
                Some(passes)
            }
        }
    }

    /// Line 21: the `WeightUpdate` upload (SCAFFOLD's is `w ‖ Δc_i`).
    pub fn weights(&self) -> Payload {
        let mut params = self.model.params();
        if let LocalOptim::Scaffold(sc) = &self.opt {
            params.extend_from_slice(&sc.delta);
        }
        Payload::WeightUpdate {
            params: to_tensors(&params),
        }
    }

    /// Installs the aggregated global model (SCAFFOLD's is `w̄ ‖ mean Δc`).
    /// Parameters off a socket are hostile until checked: a list whose
    /// arity or shapes differ from this session's uploads is refused and
    /// the model keeps its weights.
    pub fn install(&mut self, params: Vec<Tensor>) -> Result<(), UpdateShapeError> {
        check_shapes(
            &self.shapes,
            params.iter().map(|t| (t.rows as usize, t.cols as usize)),
        )?;
        let mut params = from_tensors(params);
        if let LocalOptim::Scaffold(sc) = &mut self.opt {
            // `c ← c + (|S|/N)·mean Δc`.
            for (c, d) in sc.global.iter_mut().zip(params.split_off(params.len() / 2)) {
                axpy(c, sc.share, &d);
            }
        }
        self.model.set_params(&params);
        self.pending = None;
        Ok(())
    }

    /// The local model.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Pooled-evaluation counts of the current model on `client`, from one
    /// forward pass.
    ///
    /// With `keep` (a client that trains next round) the pass is recorded
    /// as the pending forward, on the session's own buffer pool, and the
    /// next round's [`Self::forward`] is free: no model has a train/eval
    /// mode, and only `step`, `install` and `restore` change the weights,
    /// each of which consumes or drops the pass. Without `keep` the pass
    /// runs on a throwaway tape and pool, so the session holds no tape and
    /// its pool does not grow.
    pub fn eval_counts(&mut self, client: &ClientData, keep: bool) -> EvalCounts {
        if keep {
            let (tape, out) = self.pending_forward(client);
            return EvalCounts::of(tape.value(out.logits), client);
        }
        EvalCounts::of(&predict(self.model.as_ref(), client), client)
    }
}

/// A session's optimiser: Adam, or SCAFFOLD's momentum SGD with its
/// control variates.
enum LocalOptim {
    Adam(Adam),
    Scaffold(Box<Scaffold>),
}

/// SCAFFOLD (Karimireddy et al. 2020, paper ref. 16): FedAvg over the MLP
/// with control variates correcting client drift. Client `i` descends
/// along `g − c_i + c`; after its `K` passes it refreshes its variate with
/// option II, `c_i⁺ = c_i − c + (w₀ − w)/(K·η)` where `w₀` is the round's
/// starting model, and uploads `Δc_i = c_i⁺ − c_i` after its weights. The
/// server's FedAvg of the uploads is `w̄ ‖ mean Δc`, and every client
/// moves its copy of `c` by `(|S|/N)·mean Δc` — exactly `(1/N)·Σ_S Δc_i`
/// over a cohort `S` that all arrived. The doubled uplink is why
/// SCAFFOLD's row in the paper's Table 3 carries the extra `N·f²` term.
struct Scaffold {
    sgd: Sgd,
    /// `c_i`.
    local: Vec<Matrix>,
    /// This client's copy of the server variate `c`.
    global: Vec<Matrix>,
    /// This round's `Δc_i`.
    delta: Vec<Matrix>,
    /// `|S|/N`, the fraction of the federation one round's cohort is.
    share: f32,
}

impl Scaffold {
    fn new(cfg: &TrainConfig, params: &[Matrix], share: f32) -> Self {
        let zeros = || -> Vec<Matrix> {
            params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect()
        };
        Self {
            // Option II reads the accumulated gradient out of the weight
            // delta, which adaptive optimisers (Adam) break badly.
            // Momentum-SGD at 3× the federation's base rate keeps the
            // refresh meaningful (momentum folds into an effective step
            // size) while training at a pace comparable to the Adam-based
            // baselines.
            sgd: Sgd::with_momentum(cfg.lr * 3.0, 0.9, cfg.weight_decay),
            local: zeros(),
            global: zeros(),
            delta: zeros(),
            share,
        }
    }

    /// Option II after `passes` local passes from `start` to `now`.
    fn refresh(&mut self, start: &[Matrix], now: &[Matrix], passes: usize) {
        let inv = 1.0 / (passes as f32 * self.sgd.learning_rate());
        for ((((c_i, c), d), w0), w) in self
            .local
            .iter_mut()
            .zip(&self.global)
            .zip(&mut self.delta)
            .zip(start)
            .zip(now)
        {
            for ((((ci, &c), d), &w0), &w) in c_i
                .as_mut_slice()
                .iter_mut()
                .zip(c.as_slice())
                .zip(d.as_mut_slice())
                .zip(w0.as_slice())
                .zip(w.as_slice())
            {
                let new = *ci - c + (w0 - w) * inv;
                *d = new - *ci;
                *ci = new;
            }
        }
    }
}

/// SCAFFOLD's drift correction, `g ← g + c − c_i`.
fn correct_drift(grads: &mut [Matrix], local: &[Matrix], global: &[Matrix]) {
    for ((g, c_i), c) in grads.iter_mut().zip(local).zip(global) {
        for ((gv, &cv_i), &cv) in g
            .as_mut_slice()
            .iter_mut()
            .zip(c_i.as_slice())
            .zip(c.as_slice())
        {
            *gv += cv - cv_i;
        }
    }
}

/// One local pass's loss readings: the total and its CE, scaled-ortho and
/// scaled-CMD terms. A baseline pass reports its whole objective as
/// `ce`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepLosses {
    pub total: f32,
    pub ce: f32,
    pub ortho: f32,
    pub cmd: f32,
}

impl StepLosses {
    /// The readings of a pass whose objective has no ortho or CMD term.
    fn total_only(total: f32) -> Self {
        Self {
            total,
            ce: total,
            ortho: 0.0,
            cmd: 0.0,
        }
    }

    /// The `LocalStepDone` event reporting this as `client`'s pass `epoch`.
    pub fn event(&self, client: u32, epoch: u32) -> RoundEvent {
        RoundEvent::LocalStepDone {
            client,
            epoch,
            loss: self.total as f64,
            ce: self.ce as f64,
            ortho: self.ortho as f64,
            cmd: self.cmd as f64,
        }
    }
}

/// `(correct, total)` over validation and test nodes. Pooled accuracy is a
/// ratio of integer sums, so it does not depend on summation order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalCounts {
    pub val: (u64, u64),
    pub test: (u64, u64),
}

impl AddAssign for EvalCounts {
    fn add_assign(&mut self, o: Self) {
        self.val = (self.val.0 + o.val.0, self.val.1 + o.val.1);
        self.test = (self.test.0 + o.test.0, self.test.1 + o.test.1);
    }
}

impl EvalCounts {
    /// The counts of `logits` over `client`'s validation and test nodes.
    pub(crate) fn of(logits: &Matrix, client: &ClientData) -> Self {
        let count = |mask: &[usize]| {
            let (c, t) = count_correct(logits, &client.labels, mask);
            (c as u64, t as u64)
        };
        Self {
            val: count(&client.splits.val),
            test: count(&client.splits.test),
        }
    }

    /// Pooled `(val_acc, test_acc)`; 0 for an empty split.
    pub fn accuracy(&self) -> (f64, f64) {
        let frac = |(c, t): (u64, u64)| if t == 0 { 0.0 } else { c as f64 / t as f64 };
        (frac(self.val), frac(self.test))
    }
}

/// Why [`ServerRound::admit`] refused an envelope. A refused envelope
/// degrades exactly like a dropped frame: nothing of it is folded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// A statistics payload whose shape differs from the first folded one.
    StatsShape(ProtocolError),
    /// A weight update whose shapes differ from the first folded one.
    UpdateShape(UpdateShapeError),
    /// The payload carries a NaN or an infinity.
    NonFinite,
    /// Central moments from a sender with no round-1 sample count.
    Unannounced,
    /// A payload kind the server does not fold.
    Unexpected(&'static str),
}

impl From<UpdateShapeError> for Rejected {
    fn from(e: UpdateShapeError) -> Self {
        match e {
            UpdateShapeError::NonFinite => Rejected::NonFinite,
            UpdateShapeError::Arity { .. } | UpdateShapeError::Shape { .. } => {
                Rejected::UpdateShape(e)
            }
        }
    }
}

/// The server's side of one round: streaming folds of the uplink phases,
/// each closed into the payload to send down.
///
/// Envelopes must be admitted in ascending sender order within a phase;
/// with the fixed-lane accumulators the result is then a function of which
/// envelopes were admitted, never of when they arrived.
#[derive(Default)]
pub struct ServerRound {
    /// Keep the last global model and statistics for checkpoints.
    track: bool,
    means: MeanAccumulator,
    moments: MomentAccumulator,
    updates: UpdateAccumulator,
    /// Each round-1 reporter's sample count: round-2 moments are weighted
    /// by the `n_i` announced in round 1.
    round1_n: BTreeMap<u32, usize>,
    global_means: Option<Vec<Vec<f32>>>,
    pub(crate) last_global: Option<Vec<Matrix>>,
    pub(crate) last_stats: Option<GlobalStats>,
}

impl ServerRound {
    /// A server that keeps the last global model and statistics when
    /// `track` is set.
    pub fn new(track: bool) -> Self {
        Self {
            track,
            ..Self::default()
        }
    }

    /// Folds one uplink envelope into its phase's accumulator. Shapes off a
    /// socket are hostile until checked, and so are values: an envelope
    /// that does not match the first folded one, or carries a NaN or an
    /// infinity, is refused and leaves the round untouched. Weight updates
    /// are judged by [`UpdateAccumulator::try_push`], the rule every
    /// transport shares.
    pub fn admit(&mut self, env: Envelope) -> Result<(), Rejected> {
        let kind = env.payload.kind();
        match env.payload {
            Payload::StatsRound1 { means, n_samples } => {
                finite(means.iter().map(Vec::as_slice))?;
                let n = n_samples as usize;
                self.means.push(&means, n).map_err(Rejected::StatsShape)?;
                self.round1_n.insert(env.sender, n);
            }
            Payload::StatsRound2 { moments } => {
                let &n = self
                    .round1_n
                    .get(&env.sender)
                    .ok_or(Rejected::Unannounced)?;
                finite(moments.iter().flatten().map(Vec::as_slice))?;
                self.moments
                    .push(&moments, n)
                    .map_err(Rejected::StatsShape)?;
            }
            Payload::WeightUpdate { params } => {
                self.updates.try_push(&from_tensors(params), 1.0)?;
            }
            Payload::GlobalModel { .. }
            | Payload::GlobalStats { .. }
            | Payload::Control(_)
            | Payload::Metrics { .. } => return Err(Rejected::Unexpected(kind)),
        }
        Ok(())
    }

    /// Closes stats round 1: the `StatsRound1Done` report and the global
    /// means to send down (`None` for an empty round).
    pub fn close_means(&mut self) -> (RoundEvent, Option<Payload>) {
        let acc = std::mem::replace(&mut self.means, MeanAccumulator::new());
        let done = RoundEvent::StatsRound1Done {
            participants: acc.pushed() as usize,
        };
        self.global_means = acc.finish().ok();
        let down = self
            .global_means
            .as_ref()
            .map(|means| Payload::GlobalStats {
                means: means.clone(),
                moments: Vec::new(),
            });
        (done, down)
    }

    /// Closes stats round 2: the `StatsRound2Done` report and the full
    /// global statistics to send down (`None` when either round was empty).
    pub fn close_moments(&mut self) -> (RoundEvent, Option<Payload>) {
        let acc = std::mem::replace(&mut self.moments, MomentAccumulator::new());
        self.round1_n.clear();
        let done = RoundEvent::StatsRound2Done {
            participants: acc.pushed() as usize,
        };
        let Some((means, moments)) = self.global_means.take().zip(acc.finish().ok()) else {
            return (done, None);
        };
        if self.track {
            self.last_stats = Some(GlobalStats {
                means: means.clone(),
                moments: moments.clone(),
            });
        }
        (done, Some(Payload::GlobalStats { means, moments }))
    }

    /// Closes the weight phase: the `AggregationDone` report and the FedAvg
    /// global model to broadcast (`None` for an empty round, which leaves
    /// every local model as it is).
    pub fn close_updates(&mut self) -> (RoundEvent, Option<Payload>) {
        let acc = std::mem::replace(&mut self.updates, UpdateAccumulator::new());
        let participants = acc.pushed();
        let Some(global) = acc.finish() else {
            return (RoundEvent::AggregationDone { participants: 0 }, None);
        };
        let down = Payload::GlobalModel {
            params: to_tensors(&global),
        };
        if self.track {
            self.last_global = Some(global);
        }
        (RoundEvent::AggregationDone { participants }, Some(down))
    }

    /// The run state after round `next_round - 1`, with the state of every
    /// client in `sessions` (none on a TCP server, whose clients are
    /// elsewhere).
    pub fn checkpoint(
        &self,
        next_round: usize,
        driver: DriverState,
        sessions: &[ClientSession],
    ) -> ResumeState {
        ResumeState {
            next_round,
            params: sessions.iter().map(|s| s.model.params()).collect(),
            optim: sessions.iter().map(ClientSession::optim_state).collect(),
            model_steps: sessions.iter().map(|s| s.model.steps() as u64).collect(),
            driver,
            global: self.last_global.clone(),
            stats: self.last_stats.clone(),
        }
    }
}

/// Initial models, one taken per client in client order.
type InitialModels = Box<dyn Iterator<Item = Box<dyn Model>>>;

/// Every client's initial model under `strategy`, and the shards they
/// train on. Each strategy keeps its own seed salt, so every init has the
/// bits it always had. A common init is cloned as the caller takes each
/// model, so a clone is wrapped into its session while it is still in
/// cache.
fn initial_models<'c>(
    cfg: &TrainConfig,
    strategy: &Strategy,
    clients: &'c [ClientData],
    n_classes: usize,
    obs: &mut dyn RoundObserver,
) -> (Cow<'c, [ClientData]>, InitialModels) {
    let Some(first) = clients.first() else {
        return (Cow::Borrowed(clients), Box::new(std::iter::empty()));
    };
    let plain = |kind, client, salt| {
        build_model(
            kind,
            client,
            n_classes,
            cfg.hidden_dim,
            derive(cfg.seed, salt),
        )
    };
    // Aggregating algorithms start from a common global init (paper Phase
    // 1: the server distributes W₀).
    let common = match strategy {
        Strategy::FedOmd(omd) => build_fedomd_model(cfg, omd, first.input.n_features(), n_classes),
        Strategy::Baseline(b) => match b {
            Baseline::FedMlp | Baseline::FedProx => plain(ModelKind::Mlp, first, 0xA000),
            Baseline::FedGcn => plain(ModelKind::Gcn, first, 0xA000),
            Baseline::Scaffold => plain(ModelKind::Mlp, first, 0xB000),
            // LocGCN trains independent local models from independent
            // inits.
            Baseline::LocGcn => {
                let models: Vec<_> = clients
                    .iter()
                    .enumerate()
                    .map(|(i, c)| plain(ModelKind::Gcn, c, 0xA000 + 1 + i as u64))
                    .collect();
                return (Cow::Borrowed(clients), Box::new(models.into_iter()));
            }
            Baseline::FedLit => {
                let models = fedlit::setup(cfg, clients, n_classes, obs);
                return (Cow::Borrowed(clients), Box::new(models.into_iter()));
            }
            Baseline::FedSagePlus => {
                let (mended, models) = fedsage::setup(cfg, clients, n_classes, obs);
                return (Cow::Owned(mended), Box::new(models.into_iter()));
            }
        },
    };
    let models = (0..clients.len()).map(move |_| common.boxed_clone());
    (Cow::Borrowed(clients), Box::new(models))
}

/// Refuses a payload holding a NaN or an infinity.
fn finite<'a>(slices: impl IntoIterator<Item = &'a [f32]>) -> Result<(), Rejected> {
    // `fold` rather than `all` so the inner loop has no early exit and
    // vectorises.
    if slices
        .into_iter()
        .all(|s| s.iter().fold(true, |ok, v| ok & v.is_finite()))
    {
        Ok(())
    } else {
        Err(Rejected::NonFinite)
    }
}

/// One client's Phase-3 turn: builds `CE + α·L_ortho + β·d_CMD` (Eq. 12) on
/// the forward pass recorded in `tape`/`out`, runs backward, and takes the
/// Adam step. `targets` is `None` when the client never received this
/// round's global statistics. Returns the tape's recycled buffer pool and
/// the loss readings.
fn optimise_client(
    omd: &FedOmdConfig,
    mut tape: Tape,
    out: &ForwardOut,
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    client: &ClientData,
    targets: Option<&[CmdTargets]>,
) -> (Workspace, StepLosses) {
    let ce = tape.softmax_cross_entropy(out.logits, &client.labels, &client.splits.train);
    let mut loss = ce;
    let mut ortho_term: Option<Var> = None;
    if omd.use_ortho {
        if let Some(pen) = tape_sum(&mut tape, out.ortho_weight_vars.iter(), |t, &w| {
            t.ortho_penalty(w)
        }) {
            let scaled = tape.scale(pen, omd.alpha);
            ortho_term = Some(scaled);
            loss = tape.add(loss, scaled);
        }
    }
    let mut cmd_term: Option<Var> = None;
    if let Some(targets) = targets {
        let n_constrained = if omd.cmd_first_layer_only {
            1
        } else {
            out.hidden.len()
        };
        // Algorithm 1 line 19's `Σ_l` over the constrained layers.
        let layers = out.hidden[..n_constrained]
            .iter()
            .zip(&targets[..n_constrained]);
        if let Some(cmd) = tape_sum(&mut tape, layers, |t, (&h, target)| {
            t.cmd_loss_weighted(h, target, omd.width, omd.cmd_mean_scale)
        }) {
            let scaled = tape.scale(cmd, omd.beta);
            cmd_term = Some(scaled);
            loss = tape.add(loss, scaled);
        }
    }
    descend(&mut tape, out, loss, model, opt, |_| {});
    let losses = StepLosses {
        total: tape.scalar(loss),
        ce: tape.scalar(ce),
        ortho: ortho_term.map_or(0.0, |v| tape.scalar(v)),
        cmd: cmd_term.map_or(0.0, |v| tape.scalar(v)),
    };
    (tape.recycle(), losses)
}

/// Sums `make(tape, item)` over `items` on the tape, each term added as
/// soon as it is built (`None` when empty).
fn tape_sum<T>(
    tape: &mut Tape,
    items: impl IntoIterator<Item = T>,
    make: impl Fn(&mut Tape, T) -> Var,
) -> Option<Var> {
    let mut acc: Option<Var> = None;
    for item in items {
        let term = make(tape, item);
        acc = Some(match acc {
            None => term,
            Some(a) => tape.add(a, term),
        });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{run_baseline, Baseline};
    use crate::engine::{run, Persistence, RoundDriver};
    use crate::{setup_federation, FederationConfig, RunResult};
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_telemetry::NullObserver;
    use fedomd_transport::InProcChannel;

    fn env(sender: usize, payload: Payload) -> Envelope {
        Envelope {
            round: 0,
            sender: sender as u32,
            payload,
        }
    }

    fn global_stats(down: Option<Payload>) -> GlobalStats {
        match down {
            Some(Payload::GlobalStats { means, moments }) => GlobalStats { means, moments },
            other => panic!("expected global statistics, got {other:?}"),
        }
    }

    /// `strategy` run by calling the session and server methods directly,
    /// with no channel anywhere.
    fn direct_run(
        clients: &[ClientData],
        n_classes: usize,
        cfg: &TrainConfig,
        strategy: &Strategy,
    ) -> RunResult {
        let (mut sessions, shards) =
            ClientSession::federation(cfg, strategy, clients, n_classes, &mut NullObserver);
        let clients = &shards[..];
        let mut server = ServerRound::new(false);
        let mut driver = RoundDriver::new(cfg);
        for round in 0..cfg.rounds {
            for (s, client) in sessions.iter_mut().zip(clients) {
                s.forward(client);
            }
            let stats = strategy.exchanges_stats().then(|| {
                for (i, s) in sessions.iter().enumerate() {
                    server.admit(env(i, s.means().unwrap())).unwrap();
                }
                let means = global_stats(server.close_means().1).means;
                for (i, s) in sessions.iter().enumerate() {
                    server.admit(env(i, s.moments(&means).unwrap())).unwrap();
                }
                global_stats(server.close_moments().1)
            });
            let mut loss = 0.0f64;
            for (s, client) in sessions.iter_mut().zip(clients) {
                let passes = s.step(client, stats.as_ref()).unwrap();
                assert_eq!(passes.len(), s.passes);
                loss += passes.last().unwrap().total as f64;
            }
            if strategy.aggregates() {
                for (i, s) in sessions.iter().enumerate() {
                    server.admit(env(i, s.weights())).unwrap();
                }
                let Some(Payload::GlobalModel { params }) = server.close_updates().1 else {
                    panic!("no global model");
                };
                for s in &mut sessions {
                    s.install(params.clone()).unwrap();
                }
            }
            let mut counts = EvalCounts::default();
            for (s, client) in sessions.iter_mut().zip(clients) {
                counts += s.eval_counts(client, round + 1 < cfg.rounds);
            }
            let mean_loss = loss / sessions.len() as f64;
            driver.end_round(round, mean_loss, Some(counts), &mut NullObserver);
        }
        driver.finish_observed(strategy.name(), &mut NullObserver)
    }

    /// The protocol is the methods: four rounds of three sessions and a
    /// server, called directly, land on the bits of the in-process run,
    /// which only moves frames between them — for FedOMD and for every
    /// baseline: multi-pass FedProx and SCAFFOLD, non-aggregating LocGCN,
    /// and FedLIT and FedSage+ after their set-up exchange.
    #[test]
    fn an_io_free_round_is_the_in_process_run() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig {
            rounds: 4,
            patience: 4,
            eval_every: 1,
            ..TrainConfig::mini(0)
        };
        let k = ds.n_classes;
        let omd = Strategy::FedOmd(FedOmdConfig::paper());
        let mut pairs = vec![(
            direct_run(&clients, k, &cfg, &omd),
            run(
                &clients,
                k,
                &cfg,
                &omd,
                &mut InProcChannel::new(),
                &mut NullObserver,
                Persistence::default(),
            ),
        )];
        for (which, epochs) in [
            (Baseline::FedGcn, 1),
            (Baseline::FedProx, 2),
            (Baseline::LocGcn, 1),
            (Baseline::Scaffold, 2),
            (Baseline::FedLit, 1),
            (Baseline::FedSagePlus, 1),
        ] {
            let cfg = TrainConfig {
                local_epochs: epochs,
                ..cfg.clone()
            };
            let strategy = Strategy::Baseline(which);
            pairs.push((
                direct_run(&clients, k, &cfg, &strategy),
                run_baseline(which, &clients, k, &cfg),
            ));
        }
        for (direct, run) in pairs {
            assert_eq!(direct.algorithm, run.algorithm);
            assert_eq!(direct.test_acc.to_bits(), run.test_acc.to_bits());
            assert_eq!(direct.history.len(), run.history.len());
            for (a, b) in direct.history.iter().zip(&run.history) {
                assert_eq!(a.round, b.round);
                assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
                assert_eq!(a.val_acc.to_bits(), b.val_acc.to_bits());
                assert_eq!(a.test_acc.to_bits(), b.test_acc.to_bits());
            }
        }
    }

    fn bits(ps: &[Matrix]) -> Vec<u32> {
        ps.iter()
            .flat_map(|p| p.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Every strategy keeps its init: FedOMD's federation clones what
    /// [`ClientSession::new`] builds (same parameters, step counter and
    /// first local step), and each plain baseline's models carry the bits
    /// of their own seed salt.
    #[test]
    fn federation_inits_keep_their_seed_salts() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig::mini(0);
        let k = ds.n_classes;
        let omd = FedOmdConfig::paper();
        let federation = |strategy: Strategy| {
            ClientSession::federation(&cfg, &strategy, &clients, k, &mut NullObserver).0
        };
        for (i, (mut cloned, client)) in federation(Strategy::FedOmd(omd))
            .into_iter()
            .zip(&clients)
            .enumerate()
        {
            let mut built = ClientSession::new(&cfg, &omd, client, k);
            assert_eq!(bits(&cloned.model.params()), bits(&built.model.params()));
            assert_eq!(cloned.model.steps(), built.model.steps());
            cloned.forward(client);
            built.forward(client);
            let a = cloned.step(client, None).unwrap();
            let b = built.step(client, None).unwrap();
            assert_eq!(a, b, "client {i}");
            assert_eq!(bits(&cloned.model.params()), bits(&built.model.params()));
            assert_eq!(cloned.model.steps(), built.model.steps());
        }
        for (which, kind, salt) in [
            (Baseline::FedMlp, ModelKind::Mlp, 0xA000),
            (Baseline::FedProx, ModelKind::Mlp, 0xA000),
            (Baseline::FedGcn, ModelKind::Gcn, 0xA000),
            (Baseline::Scaffold, ModelKind::Mlp, 0xB000),
        ] {
            for (s, client) in federation(Strategy::Baseline(which)).iter().zip(&clients) {
                let expected = build_model(kind, client, k, cfg.hidden_dim, derive(0, salt));
                assert_eq!(
                    bits(&s.model.params()),
                    bits(&expected.params()),
                    "{which:?}"
                );
            }
        }
        let loc = federation(Strategy::Baseline(Baseline::LocGcn));
        for (i, (s, client)) in loc.iter().zip(&clients).enumerate() {
            let salt = 0xA000 + 1 + i as u64;
            let expected = build_model(ModelKind::Gcn, client, k, cfg.hidden_dim, derive(0, salt));
            assert_eq!(
                bits(&s.model.params()),
                bits(&expected.params()),
                "LocGCN {i}"
            );
        }
    }

    /// The logits of the pass recorded by `s`'s pending forward.
    fn pending_logits(s: &ClientSession) -> Vec<u32> {
        let (tape, out) = s.pending.as_ref().expect("a pending forward");
        bits(std::slice::from_ref(tape.value(out.logits)))
    }

    /// The premise of sharing one forward between the pooled evaluation
    /// and the next round: no model has a train/eval mode and nothing
    /// between `install` and the next round's line 3 touches the weights,
    /// so the logits the evaluation reads after `install` (on a fresh
    /// tape) are the bits the next round's forward records (on the
    /// session's warm buffer pool) — for FedOMD, FedGCN, two-pass FedProx
    /// and SCAFFOLD, whose install also moves the server variate.
    #[test]
    fn the_eval_forward_is_the_next_rounds_forward() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        for (strategy, epochs) in [
            (Strategy::FedOmd(FedOmdConfig::paper()), 1),
            (Strategy::Baseline(Baseline::FedGcn), 1),
            (Strategy::Baseline(Baseline::FedProx), 2),
            (Strategy::Baseline(Baseline::Scaffold), 2),
        ] {
            let cfg = TrainConfig {
                local_epochs: epochs,
                ..TrainConfig::mini(0)
            };
            let (mut sessions, shards) = ClientSession::federation(
                &cfg,
                &strategy,
                &clients,
                ds.n_classes,
                &mut NullObserver,
            );
            let mut server = ServerRound::new(false);
            for (i, (s, client)) in sessions.iter_mut().zip(&shards[..]).enumerate() {
                s.forward(client);
                s.step(client, None).unwrap();
                server.admit(env(i, s.weights())).unwrap();
            }
            let Some(Payload::GlobalModel { params }) = server.close_updates().1 else {
                panic!("no global model");
            };
            for (i, (s, client)) in sessions.iter_mut().zip(&shards[..]).enumerate() {
                s.install(params.clone()).unwrap();
                let eval = predict(s.model(), client);
                s.forward(client);
                assert_eq!(
                    bits(std::slice::from_ref(&eval)),
                    pending_logits(s),
                    "{} client {i}",
                    strategy.name()
                );
            }
        }
    }

    /// A FedOMD session on `client` after one local step, so its buffer
    /// pool is warm.
    fn stepped(client: &ClientData, k: usize) -> ClientSession {
        let mut s = ClientSession::new(&TrainConfig::mini(0), &FedOmdConfig::paper(), client, k);
        s.forward(client);
        s.step(client, None).unwrap();
        s
    }

    /// A kept evaluation forward belongs to the weights it ran on: after
    /// `install` or `restore` the next step must run on a fresh forward of
    /// the new weights, exactly as in a session that never kept one.
    #[test]
    fn install_and_restore_drop_a_kept_forward() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let client = &setup_federation(&ds, &FederationConfig::mini(1, 0))[0];
        let k = ds.n_classes;
        let halved: Vec<Matrix> = stepped(client, k)
            .model
            .params()
            .iter()
            .map(|p| {
                let mut h = Matrix::zeros(p.rows(), p.cols());
                axpy(&mut h, 0.5, p);
                h
            })
            .collect();
        let step_after = |keep: bool, restore: bool| {
            let mut s = stepped(client, k);
            s.eval_counts(client, keep);
            assert_eq!(s.pending.is_some(), keep);
            if restore {
                let steps = s.model.steps() as u64;
                let optim = s.optim_state();
                assert!(s.restore(&halved, steps, optim));
            } else {
                s.install(to_tensors(&halved)).unwrap();
            }
            assert!(s.pending.is_none(), "the kept forward outlived new weights");
            s.forward(client);
            let losses = s.step(client, None).unwrap();
            (losses, bits(&s.model.params()))
        };
        for restore in [false, true] {
            assert_eq!(step_after(true, restore), step_after(false, restore));
        }
    }

    /// A client outside the next cohort evaluates on a throwaway tape and
    /// pool: it keeps no forward and its own pool neither grows nor
    /// shrinks. A kept evaluation counts the same bits.
    #[test]
    fn a_spectator_eval_keeps_no_tape_and_no_pool() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let client = &setup_federation(&ds, &FederationConfig::mini(1, 0))[0];
        let mut s = stepped(client, ds.n_classes);
        let pooled = s.ws.pooled_buffers();
        assert!(pooled > 0);
        let spectator = s.eval_counts(client, false);
        assert!(s.pending.is_none());
        assert_eq!(s.ws.pooled_buffers(), pooled);
        assert_eq!(
            spectator,
            EvalCounts::of(&predict(s.model(), client), client)
        );
        assert_eq!(s.eval_counts(client, true), spectator);
        assert!(s.pending.is_some());
    }

    /// With a huge μ the proximal pull keeps the weights pinned to each
    /// round's starting model, so after many rounds the training loss must
    /// stay above the unconstrained (μ = 0) session's.
    #[test]
    fn prox_term_slows_drift_from_the_round_start() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(2, 0));
        // Several passes a round, so the weights drift from the anchor
        // within a round (on the first pass the term is zero).
        let cfg = TrainConfig {
            local_epochs: 3,
            ..TrainConfig::mini(0)
        };
        let strategy = Strategy::Baseline(Baseline::FedProx);
        let loss_with = |mu: f32| {
            let mut fed = ClientSession::federation(
                &cfg,
                &strategy,
                &clients,
                ds.n_classes,
                &mut NullObserver,
            );
            let s = &mut fed.0[0];
            s.prox_mu = mu;
            let mut last = f32::NAN;
            for _ in 0..30 {
                s.forward(&clients[0]);
                last = s.step(&clients[0], None).unwrap()[2].total;
            }
            last
        };
        assert!(loss_with(1000.0) > loss_with(0.0));
    }

    /// SCAFFOLD's upload is `w ‖ Δc_i`, its refresh is option II, and the
    /// broadcast moves `c` by `(|S|/N)·mean Δc`.
    #[test]
    fn scaffold_uploads_weights_and_control_deltas() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(4, 0));
        let cfg = TrainConfig {
            local_epochs: 2,
            cohort: crate::CohortConfig::fraction(0.5, 1),
            ..TrainConfig::mini(0)
        };
        let strategy = Strategy::Baseline(Baseline::Scaffold);
        let mut fed =
            ClientSession::federation(&cfg, &strategy, &clients, ds.n_classes, &mut NullObserver);
        let s = &mut fed.0[0];
        let start = s.model.params();
        s.forward(&clients[0]);
        assert_eq!(s.step(&clients[0], None).unwrap().len(), 2);
        let now = s.model.params();
        let Payload::WeightUpdate { params } = s.weights() else {
            panic!("weights() is a WeightUpdate");
        };
        let params = from_tensors(params);
        assert_eq!(params.len(), 2 * start.len());
        assert_eq!(bits(&params[..start.len()]), bits(&now));
        // From c = c_i = 0: Δc_i = c_i⁺ = (w₀ − w)/(K·η), η = 3·lr.
        let inv = 1.0 / (2.0 * (cfg.lr * 3.0));
        for ((d, w0), w) in params[start.len()..].iter().zip(&start).zip(&now) {
            for ((&d, &w0), &w) in d.as_slice().iter().zip(w0.as_slice()).zip(w.as_slice()) {
                assert_eq!(d.to_bits(), ((w0 - w) * inv).to_bits());
            }
        }
        let LocalOptim::Scaffold(sc) = &s.opt else {
            panic!("SCAFFOLD runs momentum SGD");
        };
        assert_eq!(bits(&sc.local), bits(&params[start.len()..]));
        assert_eq!(sc.share, 0.5);
        s.install(to_tensors(&params)).unwrap();
        let LocalOptim::Scaffold(sc) = &s.opt else {
            panic!("SCAFFOLD runs momentum SGD");
        };
        for (c, d) in sc.global.iter().zip(&params[start.len()..]) {
            for (&c, &d) in c.as_slice().iter().zip(d.as_slice()) {
                assert_eq!(c.to_bits(), (0.5 * d).to_bits());
            }
        }
        assert_eq!(
            s.install(to_tensors(&params[..start.len()])),
            Err(UpdateShapeError::Arity {
                expected: 2 * start.len(),
                got: start.len(),
            })
        );
    }

    #[test]
    fn install_refuses_a_mis_shaped_global_model_and_keeps_the_weights() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let client = &setup_federation(&ds, &FederationConfig::mini(1, 0))[0];
        let cfg = TrainConfig::mini(0);
        let mut s = ClientSession::new(&cfg, &FedOmdConfig::paper(), client, ds.n_classes);
        let before = s.model.params();
        let mut global: Vec<Matrix> = before
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        global[0] = global[0].transpose();
        let (rows, cols) = before[0].shape();
        assert_eq!(
            s.install(to_tensors(&global)),
            Err(UpdateShapeError::Shape {
                param: 0,
                expected: (rows, cols),
                got: (cols, rows),
            })
        );
        assert_eq!(
            s.install(to_tensors(&global[1..])),
            Err(UpdateShapeError::Arity {
                expected: before.len(),
                got: before.len() - 1,
            })
        );
        assert_eq!(bits(&s.model.params()), bits(&before), "model was touched");

        global[0] = global[0].transpose();
        s.install(to_tensors(&global)).unwrap();
        assert_eq!(bits(&s.model.params()), bits(&global));
    }

    #[test]
    fn admission_refuses_poisoned_unannounced_and_downlink_payloads() {
        let mut server = ServerRound::new(false);
        let means = |v: f32| Payload::StatsRound1 {
            means: vec![vec![v, 1.0]],
            n_samples: 4,
        };
        assert_eq!(
            server.admit(env(0, means(f32::INFINITY))),
            Err(Rejected::NonFinite)
        );
        server.admit(env(1, means(0.5))).unwrap();
        let moments = Payload::StatsRound2 {
            moments: vec![vec![vec![0.1, 0.2]]],
        };
        assert_eq!(
            server.admit(env(0, moments.clone())),
            Err(Rejected::Unannounced)
        );
        let poisoned = Payload::StatsRound2 {
            moments: vec![vec![vec![f32::NAN, 0.2]]],
        };
        assert_eq!(server.admit(env(1, poisoned)), Err(Rejected::NonFinite));
        server.admit(env(1, moments)).unwrap();
        assert_eq!(
            server.admit(env(1, Payload::Control(fedomd_transport::Control::Ack))),
            Err(Rejected::Unexpected("Control"))
        );
        // Only the clean payloads were folded.
        assert_eq!(
            server.close_means().0,
            RoundEvent::StatsRound1Done { participants: 1 }
        );
        assert_eq!(
            server.close_moments().0,
            RoundEvent::StatsRound2Done { participants: 1 }
        );
    }
}
