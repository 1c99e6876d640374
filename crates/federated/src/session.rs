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
//! Eq. 12, or a FedAvg-family model on CE (plus FedProx's proximal term).
//! The FedAvg family skips the statistics steps (lines 4–18), and LocGCN
//! the weight exchange too.
//!
//! | Algorithm 1 | client | server |
//! |-------------|--------|--------|
//! | 3 | [`ClientSession::forward`] | |
//! | 4–11 | [`ClientSession::means`] | [`ServerRound::admit`], [`ServerRound::close_means`] |
//! | 12–18 | [`ClientSession::moments`] | [`ServerRound::admit`], [`ServerRound::close_moments`] |
//! | 19–20 | [`ClientSession::step`] | |
//! | 21, 25–29 | [`ClientSession::weights`], [`ClientSession::install`] | [`ServerRound::admit`], [`ServerRound::close_updates`] |
//! | eval | [`ClientSession::eval_counts`] | [`EvalCounts::accuracy`] |

use std::collections::BTreeMap;
use std::ops::AddAssign;

use fedomd_autograd::{CmdTargets, Tape, Var, Workspace};
use fedomd_nn::{Adam, AdamState, ForwardOut, Model};
use fedomd_telemetry::RoundEvent;
use fedomd_tensor::rng::derive;
use fedomd_tensor::Matrix;
use fedomd_transport::{from_tensors, to_tensors, ChannelState, Envelope, Payload, Tensor};

use crate::client::ClientData;
use crate::config::{FedOmdConfig, TrainConfig};
use crate::engine::{
    build_fedomd_model, build_model, DriverState, ResumeState, StatsCache, Strategy,
};
use crate::helpers::{
    check_shapes, descend, eval_counts, finish_step, local_step, UpdateAccumulator,
    UpdateShapeError,
};
use crate::protocol::{
    build_targets, client_means, client_moments_about, GlobalStats, MeanAccumulator,
    MomentAccumulator, ProtocolError,
};

/// One client's training state, owned by the caller so it survives
/// transport reconnects.
pub struct ClientSession {
    strategy: Strategy,
    /// Local passes a round: one for FedOMD, `local_epochs` (at least one)
    /// for the FedAvg family.
    passes: usize,
    /// The local model.
    pub(crate) model: Box<dyn Model>,
    /// The local optimiser (per-client state, never shipped).
    pub(crate) opt: Adam,
    /// Reusable autograd buffer pool.
    ws: Workspace,
    /// The model's parameter shapes, against which an incoming global
    /// model is checked.
    shapes: Vec<(usize, usize)>,
    /// This round's recorded forward pass, from [`Self::forward`] until
    /// [`Self::step`] consumes it.
    pending: Option<(Tape, ForwardOut)>,
}

impl ClientSession {
    /// Client `index`'s fresh session: FedOMD's common init (the same
    /// [`crate::engine::build_fedomd_model`] every process calls), or the
    /// FedAvg family's (common when aggregating, per client for LocGCN).
    pub fn new(
        cfg: &TrainConfig,
        strategy: &Strategy,
        index: usize,
        client: &ClientData,
        n_classes: usize,
    ) -> Self {
        let model = initial_model(cfg, strategy, index, client, n_classes);
        Self::with_model(cfg, strategy, model)
    }

    /// One fresh session per client, each equal to what [`Self::new`]
    /// builds for it. A strategy that aggregates starts every client from
    /// one common model, so that model is built once and cloned; LocGCN's
    /// per-client models are built one by one.
    pub(crate) fn federation(
        cfg: &TrainConfig,
        strategy: &Strategy,
        clients: &[ClientData],
        n_classes: usize,
    ) -> Vec<Self> {
        let common = match clients.first() {
            Some(first) if strategy.aggregates() => {
                Some(initial_model(cfg, strategy, 0, first, n_classes))
            }
            _ => None,
        };
        clients
            .iter()
            .enumerate()
            .map(|(i, client)| {
                let model = match &common {
                    Some(m) => m.boxed_clone(),
                    None => initial_model(cfg, strategy, i, client, n_classes),
                };
                Self::with_model(cfg, strategy, model)
            })
            .collect()
    }

    fn with_model(cfg: &TrainConfig, strategy: &Strategy, model: Box<dyn Model>) -> Self {
        let passes = match strategy {
            Strategy::FedOmd(_) => 1,
            Strategy::FedAvg(_) => cfg.local_epochs.max(1),
        };
        Self {
            strategy: *strategy,
            passes,
            shapes: model.params().iter().map(Matrix::shape).collect(),
            model,
            opt: Adam::new(cfg.lr, cfg.weight_decay),
            ws: Workspace::new(),
            pending: None,
        }
    }

    /// Restores checkpointed client state. The Newton–Schulz cadence counts
    /// optimiser steps, so the counter is restored with the parameters.
    pub(crate) fn restore(&mut self, params: &[Matrix], steps: u64, optim: AdamState) {
        self.model.set_params(params);
        self.model.set_steps(steps as usize);
        self.opt.set_state(optim);
    }

    /// Line 3: records this round's forward pass on a tape drawn from the
    /// session's buffer pool.
    pub fn forward(&mut self, client: &ClientData) {
        let mut tape = Tape::with_workspace(std::mem::take(&mut self.ws));
        let out = self.model.forward(&mut tape, &client.input);
        self.pending = Some((tape, out));
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
    /// global means. `None` before [`Self::forward`], and for a FedAvg-family
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
    /// and an Adam step, then takes the strategy's remaining passes, each a
    /// forward, backward and step. Returns one reading per pass; `None`
    /// before [`Self::forward`].
    ///
    /// FedOMD's objective is `CE + α·L_ortho + β·d_CMD`; without this
    /// round's global statistics the client trains without the CMD term.
    /// The FedAvg family's is CE, plus FedProx's `μ·Σ‖W − W₀‖²` anchored
    /// on the weights this round's forward pass ran on.
    pub fn step(
        &mut self,
        client: &ClientData,
        stats: Option<&GlobalStats>,
    ) -> Option<Vec<StepLosses>> {
        let (tape, out) = self.pending.take()?;
        let model = &mut self.model;
        match &self.strategy {
            Strategy::FedOmd(omd) => {
                let targets = stats.map(build_targets);
                let (ws, losses) = optimise_client(
                    omd,
                    tape,
                    &out,
                    model.as_mut(),
                    &mut self.opt,
                    client,
                    targets.as_deref(),
                );
                self.ws = ws;
                Some(vec![losses])
            }
            Strategy::FedAvg(opts) => {
                // The anchor is copied only when the term is on: an empty
                // anchor adds no terms.
                let anchor = if opts.prox_mu > 0.0 {
                    model.params()
                } else {
                    Vec::new()
                };
                let mu = opts.prox_mu;
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
                let (ws, total) = finish_step(
                    tape,
                    &out,
                    model.as_mut(),
                    client,
                    &mut self.opt,
                    prox,
                    |_| {},
                );
                self.ws = ws;
                let mut passes = vec![StepLosses::total_only(total)];
                for _ in 1..self.passes {
                    let total =
                        local_step(model, client, &mut self.opt, &mut self.ws, prox, |_| {});
                    passes.push(StepLosses::total_only(total));
                }
                Some(passes)
            }
        }
    }

    /// Line 21: the `WeightUpdate` upload.
    pub fn weights(&self) -> Payload {
        Payload::WeightUpdate {
            params: to_tensors(&self.model.params()),
        }
    }

    /// Installs the aggregated global model. Parameters off a socket are
    /// hostile until checked: a list whose arity or shapes differ from this
    /// model's is refused and the model keeps its weights.
    pub fn install(&mut self, params: Vec<Tensor>) -> Result<(), UpdateShapeError> {
        check_shapes(
            &self.shapes,
            params.iter().map(|t| (t.rows as usize, t.cols as usize)),
        )?;
        self.model.set_params(&from_tensors(params));
        Ok(())
    }

    /// The local model.
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// Pooled-evaluation counts of the current model on `client`.
    pub fn eval_counts(&self, client: &ClientData) -> EvalCounts {
        eval_counts(self.model.as_ref(), client)
    }
}

/// One local pass's loss readings: the total and its CE, scaled-ortho and
/// scaled-CMD terms. A FedAvg-family pass reports its whole objective as
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
    pub(crate) last_stats: Option<StatsCache>,
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
            self.last_stats = Some(StatsCache {
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
        channel: ChannelState,
        sessions: &[ClientSession],
    ) -> ResumeState {
        ResumeState {
            next_round,
            params: sessions.iter().map(|s| s.model.params()).collect(),
            optim: sessions.iter().map(|s| s.opt.state()).collect(),
            model_steps: sessions.iter().map(|s| s.model.steps() as u64).collect(),
            driver,
            channel,
            global: self.last_global.clone(),
            stats: self.last_stats.clone(),
        }
    }
}

/// Client `index`'s initial model under `strategy`.
fn initial_model(
    cfg: &TrainConfig,
    strategy: &Strategy,
    index: usize,
    client: &ClientData,
    n_classes: usize,
) -> Box<dyn Model> {
    match strategy {
        Strategy::FedOmd(omd) => build_fedomd_model(cfg, omd, client.input.n_features(), n_classes),
        Strategy::FedAvg(opts) => {
            // Aggregating algorithms start from a common global init
            // (paper Phase 1: the server distributes W₀); LocGCN trains
            // independent local models from independent inits.
            let salt = if opts.aggregate {
                0xA000
            } else {
                0xA000 + 1 + index as u64
            };
            let seed = derive(cfg.seed, salt);
            build_model(opts.model, client, n_classes, cfg.hidden_dim, seed)
        }
    }
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
    opt: &mut Adam,
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
        let mut sessions: Vec<ClientSession> = clients
            .iter()
            .enumerate()
            .map(|(i, c)| ClientSession::new(cfg, strategy, i, c, n_classes))
            .collect();
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
            for (s, client) in sessions.iter().zip(clients) {
                counts += s.eval_counts(client);
            }
            let mean_loss = loss / sessions.len() as f64;
            driver.end_round(round, mean_loss, Some(counts), &mut NullObserver);
        }
        driver.finish_observed(strategy.name(), &mut NullObserver)
    }

    /// The protocol is the methods: four rounds of three sessions and a
    /// server, called directly, land on the bits of the in-process run,
    /// which only moves frames between them — for FedOMD and for the
    /// FedAvg family, multi-pass FedProx and non-aggregating LocGCN
    /// included.
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
        ] {
            let cfg = TrainConfig {
                local_epochs: epochs,
                ..cfg.clone()
            };
            let strategy = Strategy::FedAvg(which.generic_opts().unwrap());
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

    /// Cloning the one common initial model into every session gives each
    /// client what building its own session gives it: the same parameters,
    /// step counter and first local step. LocGCN's per-client models are
    /// checked the same way.
    #[test]
    fn a_federation_of_cloned_sessions_equals_sessions_built_one_by_one() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig::mini(0);
        let k = ds.n_classes;
        let bits = |s: &ClientSession| -> Vec<u32> {
            s.model
                .params()
                .iter()
                .flat_map(|p| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        let strategies = [
            Strategy::FedOmd(FedOmdConfig::paper()),
            Strategy::FedAvg(Baseline::FedGcn.generic_opts().unwrap()),
            Strategy::FedAvg(Baseline::LocGcn.generic_opts().unwrap()),
        ];
        for strategy in strategies {
            let federation = ClientSession::federation(&cfg, &strategy, &clients, k);
            assert_eq!(federation.len(), clients.len());
            for (i, (mut cloned, client)) in federation.into_iter().zip(&clients).enumerate() {
                let mut built = ClientSession::new(&cfg, &strategy, i, client, k);
                assert_eq!(
                    bits(&cloned),
                    bits(&built),
                    "{} client {i}",
                    strategy.name()
                );
                assert_eq!(cloned.model.steps(), built.model.steps());
                cloned.forward(client);
                built.forward(client);
                let a = cloned.step(client, None).unwrap();
                let b = built.step(client, None).unwrap();
                assert_eq!(a, b);
                assert_eq!(
                    bits(&cloned),
                    bits(&built),
                    "{} client {i}",
                    strategy.name()
                );
                assert_eq!(cloned.model.steps(), built.model.steps());
            }
        }
    }

    #[test]
    fn install_refuses_a_mis_shaped_global_model_and_keeps_the_weights() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let client = &setup_federation(&ds, &FederationConfig::mini(1, 0))[0];
        let cfg = TrainConfig::mini(0);
        let omd = Strategy::FedOmd(FedOmdConfig::paper());
        let mut s = ClientSession::new(&cfg, &omd, 0, client, ds.n_classes);
        let before = s.model.params();
        let bits = |ps: &[Matrix]| -> Vec<u32> {
            ps.iter()
                .flat_map(|p| p.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
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
