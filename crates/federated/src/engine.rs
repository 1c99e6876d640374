//! The shared round loop and the generic FedAvg-family runner.
//!
//! [`RoundDriver`] centralises what every algorithm needs per round —
//! evaluation, early stopping on validation accuracy, history for the
//! convergence curves (paper Fig. 5), communication accounting — so each
//! algorithm implements only its round body. Wall-clock time is reported
//! only as `PhaseDone` segments to the observer.
//! [`run_generic_observed`] is the complete runner for the FedAvg family
//! (FedMLP, FedProx, LocGCN, FedGCN); SCAFFOLD, FedSage+, FedLIT, and
//! FedOMD build their own bodies on the same driver.
//!
//! Every milestone of a run — round starts, per-client local steps, frame
//! sends and drops, aggregation, evaluation, early stopping — is reported
//! to a [`RoundObserver`] (`fedomd-telemetry`). Observers are pure sinks:
//! a run with any observer is bit-identical to the same run with
//! [`fedomd_telemetry::NullObserver`], which the golden tests pin.
//! Per-round client sampling ([`crate::CohortConfig`]) restricts training
//! and uploads to a seeded cohort, and the server folds each arriving
//! weight update into a streaming [`crate::helpers::UpdateAccumulator`] so
//! aggregation memory stays O(model) at any cohort size. The `FedRun` builder in
//! `fedomd-core` is the user-facing entry point.

use rayon::prelude::*;

use fedomd_autograd::Workspace;
use fedomd_nn::{Adam, AdamState, Gcn, Mlp, Model};
use fedomd_tensor::rng::{derive, seeded};
use fedomd_tensor::Matrix;

use crate::client::ClientData;
use crate::comms::{CommsLog, Direction, TrafficClass};
use crate::config::{RoundStats, RunResult, TrainConfig};
use crate::helpers::{evaluate, fold_weight_update, local_step, UpdateAccumulator};
use fedomd_telemetry::{ObservedChannel, Phase, PhaseStopwatch, RoundEvent, RoundObserver};
use fedomd_transport::{
    from_tensors, to_tensors, Channel, ChannelState, Envelope, Payload, SERVER_SENDER,
};

/// Which local architecture the generic runner instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// 2-layer MLP (FedMLP / FedProx / SCAFFOLD family).
    Mlp,
    /// 2-layer GCN (LocGCN / FedGCN family).
    Gcn,
}

/// Options of the generic FedAvg-family runner.
#[derive(Clone, Copy, Debug)]
pub struct GenericOpts {
    /// Algorithm name stamped on the result.
    pub name: &'static str,
    /// Local architecture.
    pub model: ModelKind,
    /// Aggregate weights at the server each round (false = LocGCN's
    /// isolated local training).
    pub aggregate: bool,
    /// FedProx proximal coefficient `μ` (0 disables the term).
    pub prox_mu: f32,
}

/// The [`RoundDriver`]'s persistent bookkeeping, exportable for run
/// checkpoints.
#[derive(Clone, Debug, PartialEq)]
pub struct DriverState {
    /// Accuracy/loss history of the evaluated rounds so far.
    pub history: Vec<RoundStats>,
    /// Best validation accuracy seen (`-inf` before the first eval).
    pub best_val: f64,
    /// Test accuracy at the best-validation round.
    pub best_test: f64,
    /// Round of the best validation accuracy.
    pub best_round: usize,
    /// Eval-rounds elapsed since the last improvement (early stopping).
    pub rounds_since_improve: usize,
    /// Whether early stopping has already triggered.
    pub stopped: bool,
    /// Communication accounting so far.
    pub comms: CommsLog,
}

/// FedOMD's cached global statistics (means + central moments per hidden
/// layer), in plain vector form so a checkpoint can carry them without
/// this crate knowing the trainer's own types.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsCache {
    /// Per hidden layer: the global feature means.
    pub means: Vec<Vec<f32>>,
    /// Per hidden layer, per order (2..=K): the global central moments.
    pub moments: Vec<Vec<Vec<f32>>>,
}

/// Everything a run needs to continue from a round boundary exactly as if
/// it had never stopped. Captured after round `next_round - 1` completed
/// (history recorded, comms synced, no frames in flight).
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeState {
    /// The round the resumed loop enters first.
    pub next_round: usize,
    /// Per-client model parameters.
    pub params: Vec<Vec<Matrix>>,
    /// Per-client Adam state, aligned with `params`.
    pub optim: Vec<AdamState>,
    /// Per-client optimiser step counters, for models whose behaviour
    /// depends on the step index beyond their parameters (OrthoGcn's
    /// periodic Newton–Schulz). Always zero for the stateless generic
    /// models (MLP, GCN).
    pub model_steps: Vec<u64>,
    /// Driver bookkeeping (history, early stopping, comms).
    pub driver: DriverState,
    /// Transport state (fault-stream cursor + cumulative counters).
    pub channel: ChannelState,
    /// Last aggregated global model, when the algorithm tracks one
    /// separately from the per-client copies (FedOMD Phase 4).
    pub global: Option<Vec<Matrix>>,
    /// Last global statistics exchange (FedOMD Phases 2–3).
    pub stats: Option<StatsCache>,
}

/// Where periodic [`ResumeState`] snapshots go. Implemented by
/// `fedomd-core`'s file checkpointer; kept as a trait here so the round
/// loops stay ignorant of serialisation and paths.
pub trait CheckpointSink {
    /// Snapshot period in rounds (0 disables saving).
    fn every(&self) -> usize;

    /// Persists one snapshot. Implementations report
    /// `RoundEvent::CheckpointSaved` through `obs` once the snapshot is
    /// durable.
    fn save(&mut self, state: ResumeState, obs: &mut dyn RoundObserver);
}

/// Checkpoint/resume wiring of a resumable run; `Default` is a plain
/// one-shot run (nothing restored, nothing saved).
#[derive(Default)]
pub struct Persistence<'a> {
    /// Snapshot to restore before the first round (the loop then enters at
    /// [`ResumeState::next_round`]).
    pub resume: Option<ResumeState>,
    /// Periodic snapshot destination.
    pub sink: Option<&'a mut dyn CheckpointSink>,
}

/// Round-loop bookkeeping shared by every algorithm.
pub struct RoundDriver {
    cfg: TrainConfig,
    history: Vec<RoundStats>,
    best_val: f64,
    best_test: f64,
    best_round: usize,
    rounds_since_improve: usize,
    stopped: bool,
    /// Communication log (algorithms update it directly).
    pub comms: CommsLog,
}

impl RoundDriver {
    /// A fresh driver for one run.
    pub fn new(cfg: &TrainConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            history: Vec::new(),
            best_val: f64::NEG_INFINITY,
            best_test: 0.0,
            best_round: 0,
            rounds_since_improve: 0,
            stopped: false,
            comms: CommsLog::new(),
        }
    }

    /// A driver continuing from a checkpointed [`DriverState`].
    pub fn resume(cfg: &TrainConfig, state: DriverState) -> Self {
        Self {
            cfg: cfg.clone(),
            history: state.history,
            best_val: state.best_val,
            best_test: state.best_test,
            best_round: state.best_round,
            rounds_since_improve: state.rounds_since_improve,
            stopped: state.stopped,
            comms: state.comms,
        }
    }

    /// Snapshots the persistent bookkeeping for a run checkpoint.
    pub fn snapshot(&self) -> DriverState {
        DriverState {
            history: self.history.clone(),
            best_val: self.best_val,
            best_test: self.best_test,
            best_round: self.best_round,
            rounds_since_improve: self.rounds_since_improve,
            stopped: self.stopped,
            comms: self.comms,
        }
    }

    /// True once early stopping has triggered.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Emits the run-start event for an algorithm driving this round loop.
    pub fn announce(&self, algorithm: &str, n_clients: usize, obs: &mut dyn RoundObserver) {
        obs.on_event(&RoundEvent::RunStarted {
            algorithm: algorithm.to_string(),
            n_clients,
            max_rounds: self.cfg.rounds,
        });
    }

    /// True when `round` is on the evaluation schedule.
    pub fn eval_due(&self, round: usize) -> bool {
        round.is_multiple_of(self.cfg.eval_every)
    }

    /// Ends a round: evaluates on schedule, updates the early-stopping
    /// state, records history, and reports `EvalDone` / `EarlyStopped` /
    /// `RoundFinished` to `obs`. Call once per communication round.
    pub fn end_round_observed(
        &mut self,
        round: usize,
        mean_train_loss: f64,
        models: &[Box<dyn Model>],
        clients: &[ClientData],
        obs: &mut dyn RoundObserver,
    ) {
        let eval = if self.eval_due(round) {
            let sw = PhaseStopwatch::start(Phase::Eval);
            let accs = evaluate(models, clients);
            sw.finish(obs);
            Some(accs)
        } else {
            None
        };
        self.end_round_metrics(round, mean_train_loss, eval, obs);
    }

    /// [`Self::end_round_observed`] for a driver that does not own the
    /// models: the caller supplies the already-computed pooled
    /// `(val_acc, test_acc)` for scheduled rounds (`None` otherwise).
    ///
    /// This is the multi-process server's entry point — clients evaluate
    /// locally and ship integer counts, the server divides the pooled
    /// sums — and [`Self::end_round_observed`] delegates here, so the two
    /// paths share every line of history/early-stopping bookkeeping.
    pub fn end_round_metrics(
        &mut self,
        round: usize,
        mean_train_loss: f64,
        eval: Option<(f64, f64)>,
        obs: &mut dyn RoundObserver,
    ) {
        self.comms.end_round();
        if let Some((val, test)) = eval {
            obs.on_event(&RoundEvent::EvalDone {
                round: round as u64,
                val_acc: val,
                test_acc: test,
            });
            self.history.push(RoundStats {
                round,
                train_loss: mean_train_loss,
                val_acc: val,
                test_acc: test,
            });
            if val > self.best_val + 1e-12 {
                self.best_val = val;
                self.best_test = test;
                self.best_round = round;
                self.rounds_since_improve = 0;
            } else {
                self.rounds_since_improve += self.cfg.eval_every;
                if self.rounds_since_improve >= self.cfg.patience {
                    self.stopped = true;
                    obs.on_event(&RoundEvent::EarlyStopped {
                        round: round as u64,
                    });
                }
            }
        }
        obs.on_event(&RoundEvent::RoundFinished {
            round: round as u64,
            uplink_bytes: self.comms.uplink_bytes,
            downlink_bytes: self.comms.downlink_bytes,
            dropped_messages: self.comms.dropped_messages,
        });
    }

    /// Finalises into a [`RunResult`], reporting `RunFinished` to `obs`.
    pub fn finish_observed(self, algorithm: &str, obs: &mut dyn RoundObserver) -> RunResult {
        obs.on_event(&RoundEvent::RunFinished {
            algorithm: algorithm.to_string(),
            test_acc: self.best_test,
            val_acc: self.best_val.max(0.0),
            best_round: self.best_round as u64,
            rounds: self.comms.rounds,
        });
        RunResult {
            algorithm: algorithm.to_string(),
            test_acc: self.best_test,
            val_acc: self.best_val.max(0.0),
            best_round: self.best_round,
            history: self.history,
            comms: self.comms,
        }
    }
}

/// Reports each sampled client's per-epoch losses to the observer.
fn emit_local_steps(epoch_losses: &[Option<Vec<f32>>], obs: &mut dyn RoundObserver) {
    for (client, losses) in epoch_losses
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.as_ref().map(|l| (i, l)))
    {
        for (epoch, &loss) in losses.iter().enumerate() {
            obs.on_event(&RoundEvent::LocalStepDone {
                client: client as u32,
                epoch: epoch as u32,
                loss: loss as f64,
                ce: loss as f64,
                ortho: 0.0,
                cmd: 0.0,
            });
        }
    }
}

/// Builds one local model of the requested kind for client `i`.
pub fn build_model(
    kind: ModelKind,
    client: &ClientData,
    n_classes: usize,
    hidden: usize,
    seed: u64,
) -> Box<dyn Model> {
    let mut rng = seeded(seed);
    let f = client.input.n_features();
    match kind {
        ModelKind::Mlp => Box::new(Mlp::new(f, hidden, n_classes, &mut rng)),
        ModelKind::Gcn => Box::new(Gcn::new(f, hidden, n_classes, &mut rng)),
    }
}

/// Runs a FedAvg-family algorithm with every weight exchange travelling as
/// encoded frames over `chan` and every milestone reported to `obs`.
///
/// Each aggregation round: the sampled cohort uploads `WeightUpdate`
/// frames, the server aggregates **whatever arrived** (partial
/// aggregation when the channel dropped clients), and broadcasts
/// `GlobalModel` frames to every client; a client whose downlink frame
/// was lost keeps its local weights for the round. An entirely-lost round
/// (no uploads arrive) leaves every model local. Byte accounting in
/// [`CommsLog`] is the size of the actual encoded frames.
pub fn run_generic_observed(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    opts: &GenericOpts,
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
) -> RunResult {
    run_generic_resumable(
        clients,
        n_classes,
        cfg,
        opts,
        chan,
        obs,
        Persistence::default(),
    )
}

/// [`run_generic_observed`] with checkpoint/resume wiring: restores
/// `persist.resume` (model parameters, Adam moments, driver bookkeeping,
/// channel fault-stream cursor) before the loop, enters at the restored
/// round, and hands `persist.sink` a [`ResumeState`] snapshot every
/// `sink.every()` rounds. A resumed run is bit-identical to the same run
/// left uninterrupted.
///
/// # Panics
/// Panics with no clients or an invalid cohort configuration.
pub fn run_generic_resumable(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    opts: &GenericOpts,
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
    mut persist: Persistence<'_>,
) -> RunResult {
    assert!(!clients.is_empty(), "run_generic: no clients");
    #[expect(clippy::panic, reason = "documented contract (see `# Panics`)")]
    if let Err(e) = cfg.validate(clients.len()) {
        panic!("run_generic: {e}");
    }
    let mut models: Vec<Box<dyn Model>> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            // Aggregating algorithms start from a common global init
            // (paper Phase 1: the server distributes W₀); LocGCN trains
            // independent local models from independent inits.
            let seed = if opts.aggregate {
                derive(cfg.seed, 0xA000)
            } else {
                derive(cfg.seed, 0xA000 + 1 + i as u64)
            };
            build_model(opts.model, c, n_classes, cfg.hidden_dim, seed)
        })
        .collect();
    let mut optimizers: Vec<Adam> = models
        .iter()
        .map(|_| Adam::new(cfg.lr, cfg.weight_decay))
        .collect();
    // One buffer pool per client, reused across every epoch of every round.
    let mut workspaces: Vec<Workspace> = models.iter().map(|_| Workspace::new()).collect();

    let mut driver;
    let start_round;
    if let Some(resume) = persist.resume.take() {
        assert_eq!(
            resume.params.len(),
            models.len(),
            "resume: checkpoint has {} clients, federation has {}",
            resume.params.len(),
            models.len()
        );
        for (m, p) in models.iter_mut().zip(&resume.params) {
            m.set_params(p);
        }
        for (m, &steps) in models.iter_mut().zip(&resume.model_steps) {
            m.set_steps(steps as usize);
        }
        for (opt, st) in optimizers.iter_mut().zip(resume.optim) {
            opt.set_state(st);
        }
        chan.restore_state(&resume.channel);
        driver = RoundDriver::resume(cfg, resume.driver);
        start_round = resume.next_round;
    } else {
        driver = RoundDriver::new(cfg);
        start_round = 0;
    }
    driver.announce(opts.name, clients.len(), obs);
    if start_round > 0 {
        obs.on_event(&RoundEvent::Resumed {
            round: start_round as u64,
        });
    }
    let mut chan = ObservedChannel::new(chan);

    for round in start_round..cfg.rounds {
        // A checkpoint taken after early stopping resumes already-stopped.
        if driver.stopped() {
            break;
        }
        obs.on_event(&RoundEvent::RoundStarted {
            round: round as u64,
        });
        // The round's cohort: pure function of (cohort seed, round).
        let m = clients.len();
        let mut in_cohort = vec![false; m];
        for &i in &cfg.cohort.sample(round as u64, m) {
            in_cohort[i] = true;
        }
        let global_snapshot: Vec<Matrix> = if opts.prox_mu > 0.0 {
            models[0].params()
        } else {
            Vec::new()
        };

        let prox_mu = opts.prox_mu;
        let local_epochs = cfg.local_epochs;
        let global_ref = &global_snapshot;
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let epoch_losses: Vec<Option<Vec<f32>>> = models
            .par_iter_mut()
            .zip(optimizers.par_iter_mut())
            .zip(clients.par_iter())
            .zip(workspaces.par_iter_mut())
            .zip(in_cohort.par_iter())
            .map(|((((model, opt), client), ws), &active)| {
                if !active {
                    return None;
                }
                let mut losses = Vec::with_capacity(local_epochs);
                for _ in 0..local_epochs {
                    losses.push(local_step(
                        model,
                        client,
                        opt,
                        ws,
                        |tape, out| {
                            if prox_mu <= 0.0 {
                                return Vec::new();
                            }
                            out.param_vars
                                .iter()
                                .zip(global_ref)
                                .map(|(&v, g)| {
                                    let d = tape.sq_diff(v, g);
                                    tape.scale(d, prox_mu)
                                })
                                .collect()
                        },
                        |_| {},
                    ));
                }
                Some(losses)
            })
            .collect();
        emit_local_steps(&epoch_losses, obs);
        sw.finish(obs);

        if opts.aggregate {
            let sw = PhaseStopwatch::start(Phase::Comms);
            // Interleaved upload → collect → fold: the server folds each
            // arriving update into a streaming accumulator, so the uplink
            // queue holds at most one payload and aggregation memory is
            // O(model) regardless of cohort size. Fold order is ascending
            // sender (uploads happen in client order; a collect returns
            // sender-sorted envelopes), so the float summation order is
            // deterministic and matches a one-shot batch collect.
            let mut agg = UpdateAccumulator::new();
            for (i, mo) in models.iter().enumerate() {
                if !in_cohort[i] {
                    continue;
                }
                let bytes = chan.upload(Envelope {
                    round: round as u64,
                    sender: i as u32,
                    payload: Payload::WeightUpdate {
                        params: to_tensors(&mo.params()),
                    },
                });
                driver
                    .comms
                    .record(Direction::Uplink, TrafficClass::Weights, bytes as u64);
                for env in chan.server_collect(round as u64) {
                    fold_weight_update(&mut agg, env);
                }
            }
            // Straggler drain for channel impls that buffer past the
            // first post-upload collect.
            for env in chan.server_collect(round as u64) {
                fold_weight_update(&mut agg, env);
            }
            chan.flush_into(obs);
            sw.finish(obs);
            let participants = agg.pushed();
            let sw = PhaseStopwatch::start(Phase::Aggregation);
            let global = agg.finish();
            sw.finish(obs);
            if let Some(global) = global {
                obs.on_event(&RoundEvent::AggregationDone { participants });
                let sw = PhaseStopwatch::start(Phase::Comms);
                for (i, m) in models.iter_mut().enumerate() {
                    let bytes = chan.download(
                        i as u32,
                        Envelope {
                            round: round as u64,
                            sender: SERVER_SENDER,
                            payload: Payload::GlobalModel {
                                params: to_tensors(&global),
                            },
                        },
                    );
                    driver
                        .comms
                        .record(Direction::Downlink, TrafficClass::Weights, bytes as u64);
                    for env in chan.client_collect(i as u32, round as u64) {
                        if let Payload::GlobalModel { params } = env.payload {
                            m.set_params(&from_tensors(params));
                        }
                    }
                }
                chan.flush_into(obs);
                sw.finish(obs);
            } else {
                obs.on_event(&RoundEvent::AggregationDone { participants: 0 });
            }
            driver.comms.sync_dropped(chan.stats().dropped_frames);
        }

        // Mean of each sampled client's last-epoch loss. `filter_map`
        // instead of unwrapping `last()` keeps this panic-free even under
        // a (nonsensical but representable) `local_epochs == 0` config.
        let active: Vec<f64> = epoch_losses
            .iter()
            .filter_map(|l| l.as_ref().and_then(|l| l.last()).map(|&x| x as f64))
            .collect();
        let mean_loss = if active.is_empty() {
            f64::NAN
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        };
        driver.end_round_observed(round, mean_loss, &models, clients, obs);
        if let Some(sink) = persist.sink.as_mut() {
            if sink.every() > 0 && (round + 1).is_multiple_of(sink.every()) {
                let state = ResumeState {
                    next_round: round + 1,
                    params: models.iter().map(|m| m.params()).collect(),
                    optim: optimizers.iter().map(Adam::state).collect(),
                    model_steps: models.iter().map(|m| m.steps() as u64).collect(),
                    driver: driver.snapshot(),
                    channel: chan.export_state(),
                    global: None,
                    stats: None,
                };
                sink.save(state, obs);
            }
        }
        if driver.stopped() {
            break;
        }
    }
    driver.finish_observed(opts.name, obs)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{setup_federation, FederationConfig};
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_telemetry::NullObserver;
    use fedomd_transport::InProcChannel;

    fn clients(m: usize) -> (Vec<ClientData>, usize) {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        (
            setup_federation(&ds, &FederationConfig::mini(m, 0)),
            ds.n_classes,
        )
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            rounds: 60,
            patience: 40,
            ..TrainConfig::mini(0)
        }
    }

    // Test-local shorthands over the one real entry point (the public
    // builder lives in `fedomd-core`, which depends on this crate).
    fn run_generic(
        clients: &[ClientData],
        n_classes: usize,
        cfg: &TrainConfig,
        opts: &GenericOpts,
    ) -> RunResult {
        run_generic_with(clients, n_classes, cfg, opts, &mut InProcChannel::new())
    }

    fn run_generic_with(
        clients: &[ClientData],
        n_classes: usize,
        cfg: &TrainConfig,
        opts: &GenericOpts,
        chan: &mut dyn Channel,
    ) -> RunResult {
        run_generic_observed(clients, n_classes, cfg, opts, chan, &mut NullObserver)
    }

    #[test]
    fn driver_reports_early_stop_and_evals_to_the_observer() {
        use fedomd_telemetry::MemoryObserver;
        let (cl, k) = clients(2);
        // Tiny patience against a generous cap: the run must stop early,
        // and the driver must say so through the observer.
        let cfg = TrainConfig {
            rounds: 80,
            patience: 2,
            eval_every: 1,
            ..TrainConfig::mini(0)
        };
        let mut mem = MemoryObserver::new();
        let r = run_generic_observed(
            &cl,
            k,
            &cfg,
            &GenericOpts {
                name: "FedMLP",
                model: ModelKind::Mlp,
                aggregate: true,
                prox_mu: 0.0,
            },
            &mut InProcChannel::new(),
            &mut mem,
        );
        assert!(
            (r.comms.rounds as usize) < cfg.rounds,
            "run must stop early"
        );
        assert_eq!(mem.count("early_stopped"), 1);
        assert_eq!(mem.count("eval_done"), r.history.len());
        assert_eq!(mem.count("round_started") as u64, r.comms.rounds);
        assert_eq!(mem.count("run_finished"), 1);
    }

    #[test]
    fn fedgcn_like_run_learns() {
        let (cl, k) = clients(3);
        let r = run_generic(
            &cl,
            k,
            &quick_cfg(),
            &GenericOpts {
                name: "FedGCN",
                model: ModelKind::Gcn,
                aggregate: true,
                prox_mu: 0.0,
            },
        );
        assert!(
            r.test_acc > 1.2 / k as f64,
            "accuracy {} barely above chance",
            r.test_acc
        );
        assert!(r.improved(), "validation accuracy never improved");
        assert!(r.comms.total_bytes() > 0);
        assert!(!r.history.is_empty());
    }

    #[test]
    fn locgcn_run_has_no_traffic() {
        let (cl, k) = clients(3);
        let r = run_generic(
            &cl,
            k,
            &quick_cfg(),
            &GenericOpts {
                name: "LocGCN",
                model: ModelKind::Gcn,
                aggregate: false,
                prox_mu: 0.0,
            },
        );
        assert_eq!(r.comms.uplink_bytes, 0);
        assert_eq!(r.comms.downlink_bytes, 0);
        assert!(r.test_acc > 0.0);
    }

    #[test]
    fn prox_run_completes_with_sane_accuracy() {
        let (cl, k) = clients(3);
        let mut cfg = quick_cfg();
        cfg.rounds = 15;
        let r = run_generic(
            &cl,
            k,
            &cfg,
            &GenericOpts {
                name: "FedProx",
                model: ModelKind::Mlp,
                aggregate: true,
                prox_mu: 0.01,
            },
        );
        assert!(r.test_acc.is_finite());
        assert!((0.0..=1.0).contains(&r.test_acc));
        assert_eq!(r.algorithm, "FedProx");
    }

    #[test]
    fn prox_term_slows_drift_from_global() {
        // With a huge μ the proximal pull keeps the weights pinned to the
        // shared init, so after many rounds the training loss must stay
        // above the unconstrained (μ = 0) run's.
        let (cl, k) = clients(2);
        // Multiple local epochs so the weights actually drift from the
        // snapshot within a round (with one epoch the term is zero).
        let cfg = TrainConfig {
            rounds: 30,
            patience: 30,
            eval_every: 1,
            local_epochs: 3,
            ..TrainConfig::mini(0)
        };
        let loss_with = |mu: f32| {
            let r = run_generic(
                &cl,
                k,
                &cfg,
                &GenericOpts {
                    name: "x",
                    model: ModelKind::Mlp,
                    aggregate: true,
                    prox_mu: mu,
                },
            );
            r.history.last().expect("history").train_loss
        };
        assert!(loss_with(1000.0) > loss_with(0.0));
    }

    #[test]
    fn early_stopping_truncates_history() {
        let (cl, k) = clients(2);
        let cfg = TrainConfig {
            rounds: 200,
            patience: 6,
            eval_every: 1,
            ..TrainConfig::mini(0)
        };
        let r = run_generic(
            &cl,
            k,
            &cfg,
            &GenericOpts {
                name: "FedMLP",
                model: ModelKind::Mlp,
                aggregate: true,
                prox_mu: 0.0,
            },
        );
        assert!(
            (r.history.len() as u64) < 200,
            "patience 6 should stop well before 200 rounds (ran {})",
            r.history.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (cl, k) = clients(3);
        let mut cfg = quick_cfg();
        cfg.rounds = 10;
        let opts = GenericOpts {
            name: "FedMLP",
            model: ModelKind::Mlp,
            aggregate: true,
            prox_mu: 0.0,
        };
        let a = run_generic(&cl, k, &cfg, &opts);
        let b = run_generic(&cl, k, &cfg, &opts);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.val_acc, y.val_acc);
        }
    }

    #[test]
    fn sampled_cohort_runs_and_replays() {
        use crate::config::CohortConfig;
        let (cl, k) = clients(4);
        let mut cfg = quick_cfg();
        cfg.rounds = 10;
        cfg.patience = 40;
        cfg.cohort = CohortConfig::fraction(0.5, 3);
        let opts = GenericOpts {
            name: "FedMLP",
            model: ModelKind::Mlp,
            aggregate: true,
            prox_mu: 0.0,
        };
        let a = run_generic(&cl, k, &cfg, &opts);
        let b = run_generic(&cl, k, &cfg, &opts);
        assert!(a.test_acc.is_finite());
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.comms, b.comms);
        // Half the cohort uploads per round vs full participation.
        let full = run_generic(
            &cl,
            k,
            &TrainConfig {
                cohort: CohortConfig::full(),
                ..cfg.clone()
            },
            &opts,
        );
        assert!(a.comms.uplink_bytes < full.comms.uplink_bytes);
    }

    #[test]
    fn faultless_simnet_matches_inproc_bit_for_bit() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (cl, k) = clients(3);
        let mut cfg = quick_cfg();
        cfg.rounds = 12;
        let opts = GenericOpts {
            name: "FedGCN",
            model: ModelKind::Gcn,
            aggregate: true,
            prox_mu: 0.0,
        };
        let a = run_generic(&cl, k, &cfg, &opts);
        let mut sim = SimNetChannel::new(FaultConfig::default());
        let b = run_generic_with(&cl, k, &cfg, &opts, &mut sim);
        // Same frames, same arrival order, no drops: everything —
        // accuracies, history, and even the byte accounting — must agree.
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.val_acc, b.val_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.comms, b.comms);
        assert_eq!(b.comms.dropped_messages, 0);
    }

    #[test]
    fn lossy_simnet_degrades_to_partial_aggregation() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (cl, k) = clients(3);
        let mut cfg = quick_cfg();
        cfg.rounds = 40;
        let opts = GenericOpts {
            name: "FedGCN",
            model: ModelKind::Gcn,
            aggregate: true,
            prox_mu: 0.0,
        };
        let fault = FaultConfig {
            seed: 5,
            drop_prob: 0.25,
            max_retries: 1,
            ..Default::default()
        };
        let run = |fault: FaultConfig| {
            let mut sim = SimNetChannel::new(fault);
            run_generic_with(&cl, k, &cfg, &opts, &mut sim)
        };
        let r = run(fault.clone());
        assert!(
            r.comms.dropped_messages > 0,
            "25% loss with 1 retry over 40 rounds must drop something"
        );
        // The round degrades, it does not die: training still converges
        // to something clearly above chance.
        assert!(
            r.test_acc > 1.0 / k as f64,
            "accuracy {} at or below chance",
            r.test_acc
        );
        // And the whole faulty run replays exactly from the same seed.
        let r2 = run(fault);
        assert_eq!(r.test_acc, r2.test_acc);
        assert_eq!(r.comms, r2.comms);
    }

    /// Client 0 diverged: every weight it uploads is NaN.
    struct Poisoned(InProcChannel);

    impl Channel for Poisoned {
        fn upload(&mut self, mut env: Envelope) -> usize {
            if let Payload::WeightUpdate { params } = &mut env.payload {
                if env.sender == 0 {
                    for t in params.iter_mut() {
                        t.data.fill(f32::NAN);
                    }
                }
            }
            self.0.upload(env)
        }
        fn server_collect(&mut self, round: u64) -> Vec<Envelope> {
            self.0.server_collect(round)
        }
        fn download(&mut self, to: u32, env: Envelope) -> usize {
            self.0.download(to, env)
        }
        fn client_collect(&mut self, id: u32, round: u64) -> Vec<Envelope> {
            self.0.client_collect(id, round)
        }
        fn stats(&self) -> fedomd_transport::NetStats {
            self.0.stats()
        }
    }

    #[test]
    fn a_non_finite_upload_is_dropped_like_a_lost_frame() {
        use fedomd_telemetry::MemoryObserver;
        let (cl, k) = clients(3);
        let cfg = TrainConfig {
            rounds: 4,
            patience: 4,
            eval_every: 1,
            ..TrainConfig::mini(0)
        };
        let mut mem = MemoryObserver::new();
        let r = run_generic_observed(
            &cl,
            k,
            &cfg,
            &GenericOpts {
                name: "FedGCN",
                model: ModelKind::Gcn,
                aggregate: true,
                prox_mu: 0.0,
            },
            &mut Poisoned(InProcChannel::new()),
            &mut mem,
        );
        let folds: Vec<&RoundEvent> = mem
            .events
            .iter()
            .filter(|e| matches!(e, RoundEvent::AggregationDone { .. }))
            .collect();
        assert_eq!(folds.len(), cfg.rounds);
        for e in folds {
            assert_eq!(*e, RoundEvent::AggregationDone { participants: 2 });
        }
        assert_eq!(r.history.len(), cfg.rounds);
        for h in &r.history {
            assert!(h.train_loss.is_finite() && h.val_acc.is_finite() && h.test_acc.is_finite());
        }
    }

    #[test]
    fn frame_accounting_is_at_least_the_scalar_estimate() {
        let (cl, k) = clients(3);
        let mut cfg = quick_cfg();
        cfg.rounds = 8;
        let opts = GenericOpts {
            name: "FedGCN",
            model: ModelKind::Gcn,
            aggregate: true,
            prox_mu: 0.0,
        };
        let r = run_generic(&cl, k, &cfg, &opts);
        let n_scalars =
            build_model(ModelKind::Gcn, &cl[0], k, cfg.hidden_dim, 0).n_scalars() as u64;
        // Every round each of the 3 clients uploads its full model; the
        // frame encoding can only add bytes (headers, shapes, checksum) on
        // top of the raw 4-bytes-per-scalar payload the old accounting
        // assumed.
        let scalar_estimate = r.comms.rounds * cl.len() as u64 * n_scalars * 4;
        assert!(
            r.comms.uplink_bytes > scalar_estimate,
            "frame bytes {} not above scalar estimate {}",
            r.comms.uplink_bytes,
            scalar_estimate
        );
        assert!(r.comms.downlink_bytes > scalar_estimate);
    }
}
