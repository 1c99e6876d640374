//! The one in-process round loop, and the bookkeeping every loop shares.
//!
//! [`run`] drives one [`ClientSession`] per client and one [`ServerRound`]
//! in lockstep over a [`Channel`]. A [`Strategy`] says what it trains:
//! FedOMD (Algorithm 1), or one of the paper's seven baselines, which run
//! the same round without the statistics exchange and with their own local
//! model, objective and optimiser ([`Baseline`]). FedLIT and FedSage+ first
//! run a federated set-up exchange ([`ClientSession::federation`]).
//!
//! Per communication round the loop samples the cohort
//! ([`crate::CohortConfig`]), sweeps the cohort's sessions through the
//! forward pass on the machine's cores ([`fedomd_tensor::par`]), carries
//! the statistics rounds (FedOMD with the CMD term) and the weight upload
//! as encoded frames between the sessions and the server, sweeps the cohort through its local step, and broadcasts the
//! FedAvg model to *every* client — spectators included — so pooled
//! evaluation always sees a synchronised federation. The protocol steps
//! themselves are the session and server methods ([`crate::session`]);
//! this loop only moves frames and accounts their bytes. The three
//! sweeps (forward, local step, evaluation) are the only work that leaves
//! the calling thread: each session's work is independent of every
//! other's, and the sweeps return their results in session order, so a
//! run is the same bits at any worker count. The channel, the
//! [`ServerRound`], the observer and every fold stay on the calling
//! thread, in ascending sender order.
//!
//! Each upload is collected and folded before the next is sent, so the
//! uplink queue never holds more than one payload and server aggregation
//! memory stays O(model) at any cohort size. With the default in-process
//! channel the run is deterministic per seed; a simulated lossy channel
//! degrades gracefully: a round aggregates whoever arrived, a client whose
//! global model was lost keeps its weights, and a client that misses the
//! global statistics trains without the CMD term that round.
//!
//! [`RoundDriver`] centralises what every loop needs per round —
//! evaluation, early stopping on validation accuracy, history for the
//! convergence curves (paper Fig. 5), and the byte ledger: the loop
//! reports every frame it sends as `FrameSent` and every frame the
//! transport lost as `FrameDropped`, and the driver folds those events
//! into the run's [`CommsLog`] on their way to the observer. `run` and
//! `fedomd-core`'s TCP server and client build on it. Every milestone is
//! reported to a [`RoundObserver`]; observers are pure sinks, so a run
//! with any observer is bit-identical to the same run with
//! [`fedomd_telemetry::NullObserver`] (golden-tested). Wall-clock time is
//! reported only as `PhaseDone` segments. The `FedRun` builder in
//! `fedomd-core` is the user-facing entry point.

use fedomd_nn::{AdamState, Gcn, Mlp, Model, OrthoGcn, OrthoGcnConfig};
use fedomd_tensor::rng::{derive, seeded};
use fedomd_tensor::{par, Matrix};

use crate::baselines::Baseline;
use crate::client::ClientData;
use crate::comms::CommsLog;
use crate::config::{FedOmdConfig, RoundStats, RunResult, TrainConfig};
use crate::protocol::GlobalStats;
use crate::session::{ClientSession, EvalCounts, ServerRound};
use fedomd_telemetry::{Phase, PhaseStopwatch, RoundEvent, RoundObserver, TeeObserver};
use fedomd_transport::{Channel, Envelope, Payload, SERVER_SENDER};

/// Which plain architecture [`build_model`] instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// 2-layer MLP (FedMLP / FedProx / SCAFFOLD).
    Mlp,
    /// 2-layer GCN (LocGCN / FedGCN).
    Gcn,
}

/// What [`run`] trains: the local model, objective and optimiser, and
/// which phases of Algorithm 1 a round runs.
#[derive(Clone, Copy, Debug)]
pub enum Strategy {
    /// FedOMD: an Ortho-GCN trained one pass a round on `CE + α·L_ortho +
    /// β·d_CMD`, with the two-round statistics exchange when `use_cmd`.
    FedOmd(FedOmdConfig),
    /// One of the paper's seven baselines: `local_epochs` passes a round
    /// on CE (plus FedProx's proximal term, or SCAFFOLD's control
    /// variates); weights are aggregated except by LocGCN.
    Baseline(Baseline),
}

impl Strategy {
    /// The algorithm name on the result, the run events and checkpoints.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::FedOmd(_) => "FedOMD",
            Strategy::Baseline(b) => b.name(),
        }
    }

    /// Whether a round runs the statistics exchange (Algorithm 1 lines
    /// 4–18).
    pub(crate) fn exchanges_stats(&self) -> bool {
        matches!(self, Strategy::FedOmd(omd) if omd.use_cmd)
    }

    /// Whether a round uploads and aggregates weights (lines 21, 25–29).
    pub(crate) fn aggregates(&self) -> bool {
        !matches!(self, Strategy::Baseline(Baseline::LocGcn))
    }

    /// Whether sessions holding one broadcast model may be evaluated as
    /// one stacked forward: every model but FedLIT's reads only its
    /// input, and FedLIT's reads its own per-client operands.
    /// [`EvalCounts::stacked`] panics on a model that ignores its input,
    /// so a new one of those fails there rather than counting wrongly.
    fn stacks_eval(&self) -> bool {
        !matches!(self, Strategy::Baseline(Baseline::FedLit))
    }
}

/// Most entries (rows × features) of `Ŝ·X` one stacked evaluation block
/// holds ([`evaluate`]): the size of each of the block's copies of `X`
/// and `Ŝ·X`, which are rebuilt at every evaluation and dropped after it.
/// A shard larger than the cap is its own block and is evaluated on its
/// own input. 2¹⁴ entries is 512 of `cohort_sampled`'s 32-feature rows
/// (64 KiB of `f32` per copy). In a sweep of the cap from 2¹² to the
/// whole federation, its traced Eval was flat from 2¹³ to 2¹⁴ and slower
/// on either side; at 2¹⁵ `fedavg_mini`'s peak RSS rose 1.5 % over the
/// per-shard evaluation's.
const EVAL_BLOCK_ENTRIES: usize = 1 << 14;

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
    /// The byte ledger so far: the fold of the run's frame events.
    pub comms: CommsLog,
}

/// Everything a run needs to continue from a round boundary exactly as if
/// it had never stopped. Captured after round `next_round - 1` completed
/// (history recorded, every frame on the ledger, none in flight).
#[derive(Clone, Debug, PartialEq)]
pub struct ResumeState {
    /// The round the resumed loop enters first.
    pub next_round: usize,
    /// Per-client model parameters.
    pub params: Vec<Vec<Matrix>>,
    /// Per-client optimiser state, aligned with `params`.
    pub optim: Vec<OptimState>,
    /// Per-client optimiser step counters, for models whose behaviour
    /// depends on the step index beyond their parameters (OrthoGcn's
    /// periodic Newton–Schulz). Always zero for the baselines' models.
    pub model_steps: Vec<u64>,
    /// Driver bookkeeping (history, early stopping, the byte ledger).
    pub driver: DriverState,
    /// Last aggregated global model (Algorithm 1 line 27).
    pub global: Option<Vec<Matrix>>,
    /// Last global statistics exchange (FedOMD, lines 4–18).
    pub stats: Option<GlobalStats>,
}

/// One client's optimiser state in a [`ResumeState`].
#[derive(Clone, Debug, PartialEq)]
pub enum OptimState {
    /// Adam's step counter and moments (FedOMD and every baseline but
    /// SCAFFOLD).
    Adam(AdamState),
    /// SCAFFOLD's momentum-SGD velocity (empty before the first step), its
    /// control variate `c_i` and its copy of the server variate `c`, each
    /// aligned with the parameters.
    Scaffold {
        velocity: Vec<Matrix>,
        local: Vec<Matrix>,
        global: Vec<Matrix>,
    },
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

/// Round-loop bookkeeping shared by every loop: the persistent
/// [`DriverState`] and the schedule it is kept against.
pub struct RoundDriver {
    cfg: TrainConfig,
    state: DriverState,
}

impl RoundDriver {
    /// A fresh driver for one run.
    pub fn new(cfg: &TrainConfig) -> Self {
        let fresh = DriverState {
            history: Vec::new(),
            best_val: f64::NEG_INFINITY,
            best_test: 0.0,
            best_round: 0,
            rounds_since_improve: 0,
            stopped: false,
            comms: CommsLog::new(),
        };
        Self::resume(cfg, fresh)
    }

    /// A driver continuing from a checkpointed [`DriverState`].
    pub fn resume(cfg: &TrainConfig, state: DriverState) -> Self {
        Self {
            cfg: cfg.clone(),
            state,
        }
    }

    /// Snapshots the persistent bookkeeping for a run checkpoint.
    pub fn snapshot(&self) -> DriverState {
        self.state.clone()
    }

    /// `obs` behind the run's byte ledger: every event reported through
    /// the tee is folded into the driver's [`CommsLog`] first, whichever
    /// observer the caller attached.
    pub fn tee<'a>(&'a mut self, obs: &'a mut dyn RoundObserver) -> TeeObserver<'a> {
        TeeObserver::new(&mut self.state.comms, obs)
    }

    /// True once early stopping has triggered.
    pub fn stopped(&self) -> bool {
        self.state.stopped
    }

    /// True when `round` is on the evaluation schedule.
    pub fn eval_due(&self, round: usize) -> bool {
        round.is_multiple_of(self.cfg.eval_every)
    }

    /// Ends a round: records the pooled `eval` counts (`None` off the
    /// evaluation schedule) in the history, updates the early-stopping
    /// state, and reports `EvalDone` / `EarlyStopped` / `RoundFinished` to
    /// `obs`. Call once per communication round, whoever owns the models:
    /// the in-process loops count their own, the TCP server sums the counts
    /// its clients ship.
    pub fn end_round(
        &mut self,
        round: usize,
        mean_train_loss: f64,
        eval: Option<EvalCounts>,
        obs: &mut dyn RoundObserver,
    ) {
        let state = &mut self.state;
        if let Some((val, test)) = eval.map(|c| c.accuracy()) {
            obs.on_event(&RoundEvent::EvalDone {
                round: round as u64,
                val_acc: val,
                test_acc: test,
            });
            state.history.push(RoundStats {
                round,
                train_loss: mean_train_loss,
                val_acc: val,
                test_acc: test,
            });
            if val > state.best_val + 1e-12 {
                state.best_val = val;
                state.best_test = test;
                state.best_round = round;
                state.rounds_since_improve = 0;
            } else {
                state.rounds_since_improve += self.cfg.eval_every;
                if state.rounds_since_improve >= self.cfg.patience {
                    state.stopped = true;
                    obs.on_event(&RoundEvent::EarlyStopped {
                        round: round as u64,
                    });
                }
            }
        }
        let finished = RoundEvent::RoundFinished {
            round: round as u64,
            uplink_bytes: state.comms.uplink_bytes,
            downlink_bytes: state.comms.downlink_bytes,
            dropped_messages: state.comms.dropped_messages,
        };
        self.tee(obs).on_event(&finished);
    }

    /// Finalises into a [`RunResult`], reporting `RunFinished` to `obs`.
    pub fn finish_observed(self, algorithm: &str, obs: &mut dyn RoundObserver) -> RunResult {
        let state = self.state;
        obs.on_event(&RoundEvent::RunFinished {
            algorithm: algorithm.to_string(),
            test_acc: state.best_test,
            val_acc: state.best_val.max(0.0),
            best_round: state.best_round as u64,
            rounds: state.comms.rounds,
        });
        RunResult {
            algorithm: algorithm.to_string(),
            test_acc: state.best_test,
            val_acc: state.best_val.max(0.0),
            best_round: state.best_round,
            history: state.history,
            comms: state.comms,
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

/// Constructs one client's FedOMD model exactly as every process of a
/// deployment does: same architecture, same seeded init
/// (`derive(seed, 0xF000)` — the server's distributed `W₀`, paper Phase
/// 1). Every client building its model through this function starts
/// bit-identical to every other, which is what lets a multi-process run
/// reproduce the in-process one.
pub fn build_fedomd_model(
    cfg: &TrainConfig,
    omd: &FedOmdConfig,
    in_dim: usize,
    n_classes: usize,
) -> Box<dyn Model> {
    let ocfg = OrthoGcnConfig {
        in_dim,
        hidden_dim: cfg.hidden_dim,
        out_dim: n_classes,
        hidden_layers: omd.hidden_layers,
        ns_interval: 10,
        ns_iters: 3,
    };
    Box::new(OrthoGcn::new(ocfg, &mut seeded(derive(cfg.seed, 0xF000))))
}

/// Runs `strategy` over `clients` with every exchange travelling as encoded
/// frames over `chan` and every round milestone reported to `obs`.
///
/// `persist` wires checkpoint/resume: the loop restores `persist.resume`
/// (per-client parameters and optimiser state, driver bookkeeping), enters
/// at the restored round, and hands `persist.sink` a [`ResumeState`] every
/// `sink.every()` rounds — including the last aggregated global model and
/// global statistics. A resumed run is bit-identical to the same run left
/// uninterrupted: every RNG stream, the cohort sampler and a simulated
/// network's faults included, is derived from `(seed, round)` and the
/// frame or client it serves, and snapshots land on round boundaries
/// where the channel has no frames in flight.
///
/// # Panics
/// Panics with no clients, an invalid cohort configuration, or a resume
/// snapshot whose clients or optimiser state do not fit the federation.
pub fn run(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    strategy: &Strategy,
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
    mut persist: Persistence<'_>,
) -> RunResult {
    assert!(!clients.is_empty(), "run: no clients");
    #[expect(clippy::panic, reason = "documented contract (see `# Panics`)")]
    if let Err(e) = cfg.validate(clients.len()) {
        panic!("run: {e}");
    }
    let m = clients.len();
    let algorithm = strategy.name();
    let resume = persist.resume.as_mut().map(|r| {
        let optim = std::mem::take(&mut r.optim);
        (
            std::mem::take(&mut r.params),
            std::mem::take(&mut r.model_steps),
            optim,
        )
    });
    let (mut driver, mut server, start_round) = open_run(cfg, algorithm, m, &mut persist, obs);
    // The set-up is a pure function of (seed, shards): a resumed run
    // re-derives it, but its checkpointed ledger already holds the set-up
    // frames, so only a fresh run reports them.
    let (mut sessions, shards) = if resume.is_some() {
        ClientSession::federation(cfg, strategy, clients, n_classes, &mut WithoutFrames(obs))
    } else {
        ClientSession::federation(cfg, strategy, clients, n_classes, &mut driver.tee(obs))
    };
    if let Some((params, steps, optim)) = resume {
        assert_eq!(
            params.len(),
            m,
            "resume: checkpoint has {} clients, federation has {m}",
            params.len()
        );
        for (((s, p), steps), st) in sessions.iter_mut().zip(&params).zip(steps).zip(optim) {
            assert!(
                s.restore(p, steps, st),
                "resume: checkpoint optimiser state does not fit {algorithm}"
            );
        }
    }
    let clients = &shards[..];

    for round in start_round..cfg.rounds {
        // A checkpoint taken after early stopping resumes already-stopped.
        if driver.stopped() {
            break;
        }
        obs.on_event(&RoundEvent::RoundStarted {
            round: round as u64,
        });
        let r = round as u64;
        // The round's cohort: pure function of (cohort seed, round),
        // ascending, so a resumed run replays the same participation.
        let cohort = cfg.cohort.sample(r, m);
        let in_cohort = membership(&cohort, m);

        // --- Forward passes (cohort, parallel) ---
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        par::map_mut(&mut members(&mut sessions, &in_cohort), |_, (i, s)| {
            s.forward(&clients[*i]);
        });
        sw.finish(obs);

        // --- The 2-round statistics exchange, to and from the cohort ---
        let mut stats: Vec<Option<GlobalStats>> = vec![None; m];
        if strategy.exchanges_stats() {
            let sw = PhaseStopwatch::start(Phase::Comms);
            for &i in &cohort {
                if let Some(means) = sessions[i].means() {
                    up(chan, &mut driver.tee(obs), &mut server, r, i, means);
                }
            }
            let (done, down) = server.close_means();
            obs.on_event(&done);
            let mut global_means: Vec<Option<Vec<Vec<f32>>>> = vec![None; m];
            if let Some(payload) = down {
                for &i in &cohort {
                    for got in send(chan, &mut driver.tee(obs), r, i, payload.clone()) {
                        if let Payload::GlobalStats { means, .. } = got {
                            global_means[i] = Some(means);
                        }
                    }
                }
            }
            // A client that never received the means sits round 2 out.
            for &i in &cohort {
                let global = global_means[i].as_ref();
                if let Some(moments) = global.and_then(|g| sessions[i].moments(g)) {
                    up(chan, &mut driver.tee(obs), &mut server, r, i, moments);
                }
            }
            let (done, down) = server.close_moments();
            obs.on_event(&done);
            if let Some(payload) = down {
                for &i in &cohort {
                    for got in send(chan, &mut driver.tee(obs), r, i, payload.clone()) {
                        if let Payload::GlobalStats { means, moments } = got {
                            stats[i] = Some(GlobalStats { means, moments });
                        }
                    }
                }
            }
            sw.finish(obs);
        }

        // --- Local steps (cohort, parallel) ---
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let losses = par::map_mut(&mut members(&mut sessions, &in_cohort), |_, (i, s)| {
            (*i, s.step(&clients[*i], stats[*i].as_ref()))
        });
        for (i, passes) in &losses {
            for (epoch, l) in passes.iter().flatten().enumerate() {
                obs.on_event(&l.event(*i as u32, epoch as u32));
            }
        }
        sw.finish(obs);

        // --- FedAvg over the channel (partial under faults) ---
        // `installed[i]`: session `i` holds this round's global model.
        let mut installed = vec![false; m];
        if strategy.aggregates() {
            let sw = PhaseStopwatch::start(Phase::Comms);
            for &i in &cohort {
                let weights = sessions[i].weights();
                up(chan, &mut driver.tee(obs), &mut server, r, i, weights);
            }
            // Straggler drain: both in-process channels resolve every
            // pending frame at the first collect after its upload, but a
            // buffering channel impl may surface late arrivals here.
            for env in chan.server_collect(r) {
                let _admitted = server.admit(env).is_ok();
            }
            report_losses(chan, &mut driver.tee(obs));
            sw.finish(obs);
            let sw = PhaseStopwatch::start(Phase::Aggregation);
            let (done, down) = server.close_updates();
            sw.finish(obs);
            obs.on_event(&done);
            if let Some(payload) = down {
                // Broadcast to every client — spectators included — so the
                // federation stays synchronised for pooled evaluation.
                let sw = PhaseStopwatch::start(Phase::Comms);
                for (i, s) in sessions.iter_mut().enumerate() {
                    for got in send(chan, &mut driver.tee(obs), r, i, payload.clone()) {
                        if let Payload::GlobalModel { params } = got {
                            // A refused model degrades like a lost downlink
                            // frame: the client keeps its weights.
                            installed[i] = s.install(params).is_ok();
                        }
                    }
                }
                sw.finish(obs);
            }
        }

        // The mean of each trained client's last-pass loss.
        let active: Vec<f64> = losses
            .iter()
            .filter_map(|(_, l)| l.as_ref().and_then(|l| l.last()))
            .map(|l| l.total as f64)
            .collect();
        let mean_loss = if active.is_empty() {
            f64::NAN
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        };
        let eval = driver.eval_due(round).then(|| {
            let next = if round + 1 < cfg.rounds {
                cfg.cohort.sample(r + 1, m)
            } else {
                Vec::new()
            };
            let keep = membership(&next, m);
            let stacks = strategy.stacks_eval();
            let spectator: Vec<bool> = installed
                .iter()
                .zip(&keep)
                .map(|(&installed, &keep)| stacks && installed && !keep)
                .collect();
            let sw = PhaseStopwatch::start(Phase::Eval);
            let counts = evaluate(&mut sessions, clients, &keep, &spectator);
            sw.finish(obs);
            counts
        });
        driver.end_round(round, mean_loss, eval, obs);
        save_if_due(&mut persist, round, obs, || {
            server.checkpoint(round + 1, driver.snapshot(), &sessions)
        });
        if driver.stopped() {
            break;
        }
    }
    driver.finish_observed(algorithm, obs)
}

/// The cohort's sessions in ascending order, each with its index: the
/// job list of the forward and step sweeps.
fn members<'s>(
    sessions: &'s mut [ClientSession],
    in_cohort: &[bool],
) -> Vec<(usize, &'s mut ClientSession)> {
    sessions
        .iter_mut()
        .enumerate()
        .zip(in_cohort)
        .filter_map(|(member, &active)| active.then_some(member))
        .collect()
}

/// One job of the evaluation sweep.
enum EvalJob<'a> {
    /// A session on its own shard, keeping the forward when it trains
    /// next round.
    Own(&'a mut ClientSession, &'a ClientData, bool),
    /// One stacked forward of a block of spectators' shards.
    Block(&'a dyn Model, Vec<&'a ClientData>),
}

/// The pooled counts of every session on its shard, from one sweep over
/// the machine's cores. Next round's cohort (`keep`) keeps its evaluation
/// forward as that round's line 3. The spectators, sessions that hold
/// this round's broadcast model and sit next round out, all hold the same
/// weights: they are evaluated in blocks of consecutive shards of at most
/// [`EVAL_BLOCK_ENTRIES`], one [`EvalCounts::stacked`] forward per block.
/// Everyone else evaluates its own weights on its own shard.
fn evaluate(
    sessions: &mut [ClientSession],
    clients: &[ClientData],
    keep: &[bool],
    spectator: &[bool],
) -> EvalCounts {
    let mut jobs = Vec::new();
    let mut spectators = Vec::new();
    for (((s, client), &keep), &spectator) in
        sessions.iter_mut().zip(clients).zip(keep).zip(spectator)
    {
        if spectator {
            spectators.push((&*s, client));
        } else {
            jobs.push(EvalJob::Own(s, client, keep));
        }
    }
    let mut rest = &spectators[..];
    while let Some(&(first, _)) = rest.first() {
        let mut entries = 0;
        let len = rest
            .iter()
            .take_while(|(_, c)| {
                entries += c.n_nodes() * c.input.n_features();
                entries <= EVAL_BLOCK_ENTRIES
            })
            .count()
            .max(1);
        let (block, tail) = rest.split_at(len);
        let shards = block.iter().map(|&(_, c)| c).collect();
        jobs.push(EvalJob::Block(first.model(), shards));
        rest = tail;
    }
    let mut counts = EvalCounts::default();
    for c in par::map_mut(&mut jobs, |_, job| match job {
        EvalJob::Own(s, client, keep) => s.eval_counts(client, *keep),
        EvalJob::Block(model, shards) => EvalCounts::stacked(*model, shards),
    }) {
        counts += c;
    }
    counts
}

/// `member[i]` iff client `i` is in `cohort`.
fn membership(cohort: &[usize], m: usize) -> Vec<bool> {
    let mut member = vec![false; m];
    for &i in cohort {
        member[i] = true;
    }
    member
}

/// Opens the server side of a run, in-process or over TCP: restores the
/// driver bookkeeping and last global model/statistics from
/// `persist.resume` (or starts fresh), announces `algorithm`, and
/// returns the driver, the server state and the first round to enter. The
/// server keeps the last global model and statistics when there is a
/// checkpoint sink to hand them to.
pub fn open_run(
    cfg: &TrainConfig,
    algorithm: &str,
    n_clients: usize,
    persist: &mut Persistence<'_>,
    obs: &mut dyn RoundObserver,
) -> (RoundDriver, ServerRound, usize) {
    let mut server = ServerRound::new(persist.sink.is_some());
    let (driver, start_round) = match persist.resume.take() {
        Some(resume) => {
            server.last_global = resume.global;
            server.last_stats = resume.stats;
            (RoundDriver::resume(cfg, resume.driver), resume.next_round)
        }
        None => (RoundDriver::new(cfg), 0),
    };
    obs.on_event(&RoundEvent::RunStarted {
        algorithm: algorithm.to_string(),
        n_clients,
        max_rounds: cfg.rounds,
    });
    if start_round > 0 {
        obs.on_event(&RoundEvent::Resumed {
            round: start_round as u64,
        });
    }
    (driver, server, start_round)
}

/// Hands `persist.sink` the snapshot `state()` when round `round` ends on
/// its schedule.
pub fn save_if_due(
    persist: &mut Persistence<'_>,
    round: usize,
    obs: &mut dyn RoundObserver,
    state: impl FnOnce() -> ResumeState,
) {
    if let Some(sink) = persist.sink.as_mut() {
        if sink.every() > 0 && (round + 1).is_multiple_of(sink.every()) {
            sink.save(state(), obs);
        }
    }
}

/// Forwards everything but frame events: the set-up of a resumed run,
/// whose frames its checkpointed ledger already holds.
struct WithoutFrames<'a>(&'a mut dyn RoundObserver);

impl RoundObserver for WithoutFrames<'_> {
    fn on_event(&mut self, event: &RoundEvent) {
        if !matches!(
            event,
            RoundEvent::FrameSent { .. } | RoundEvent::FrameDropped { .. }
        ) {
            self.0.on_event(event);
        }
    }
}

/// Reports `copies` sends of `env` to `obs` as `FrameSent`, at its
/// [`Envelope::encoded_len`]: every driver's sends, and the set-up
/// exchanges of FedLIT and FedSage+, which fold in-process rather than
/// over the run's channel.
pub fn charge(obs: &mut dyn RoundObserver, env: &Envelope, copies: usize) {
    let sent = RoundEvent::FrameSent {
        kind: env.payload.kind(),
        bytes: env.encoded_len() as u64,
    };
    for _ in 0..copies {
        obs.on_event(&sent);
    }
}

/// Reports every frame `chan` lost since the last call as one
/// `FrameDropped`, in the order the transport gave up on them. Drivers
/// call it right after the collect that answered for the lost frames.
pub fn report_losses(chan: &mut dyn Channel, obs: &mut dyn RoundObserver) {
    for (kind, bytes) in chan.drain_lost() {
        obs.on_event(&RoundEvent::FrameDropped { kind, bytes });
    }
}

/// A client uploads `env`, reporting it to `obs` as `FrameSent` (then
/// as `FrameDropped` if the transport lost it on the way out).
pub fn upload(chan: &mut dyn Channel, obs: &mut dyn RoundObserver, env: Envelope) {
    charge(obs, &env, 1);
    chan.upload(env);
    report_losses(chan, obs);
}

/// Client `sender` uploads `payload`; the server collects and admits.
fn up(
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
    server: &mut ServerRound,
    round: u64,
    sender: usize,
    payload: Payload,
) {
    let env = Envelope {
        round,
        sender: sender as u32,
        payload,
    };
    upload(chan, obs, env);
    for env in chan.server_collect(round) {
        let _admitted = server.admit(env).is_ok();
    }
    report_losses(chan, obs);
}

/// The server sends `payload` to client `to`; returns what it collects.
fn send(
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
    round: u64,
    to: usize,
    payload: Payload,
) -> impl Iterator<Item = Payload> {
    let env = Envelope {
        round,
        sender: SERVER_SENDER,
        payload,
    };
    charge(obs, &env, 1);
    chan.download(to as u32, env);
    let got = chan.client_collect(to as u32, round);
    report_losses(chan, obs);
    got.into_iter().map(|env| env.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{setup_federation, FederationConfig};
    use crate::config::CohortConfig;
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_telemetry::{MemoryObserver, NullObserver};
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

    // Test-local shorthands over the one entry point (the public builder
    // lives in `fedomd-core`, which depends on this crate).
    fn run_fedavg(
        clients: &[ClientData],
        n_classes: usize,
        cfg: &TrainConfig,
        which: Baseline,
    ) -> RunResult {
        run_fedavg_with(clients, n_classes, cfg, which, &mut InProcChannel::new())
    }

    fn run_fedavg_with(
        clients: &[ClientData],
        n_classes: usize,
        cfg: &TrainConfig,
        which: Baseline,
        chan: &mut dyn Channel,
    ) -> RunResult {
        run_fedavg_observed(clients, n_classes, cfg, which, chan, &mut NullObserver)
    }

    fn run_fedavg_observed(
        clients: &[ClientData],
        n_classes: usize,
        cfg: &TrainConfig,
        which: Baseline,
        chan: &mut dyn Channel,
        obs: &mut dyn RoundObserver,
    ) -> RunResult {
        let strategy = Strategy::Baseline(which);
        run(
            clients,
            n_classes,
            cfg,
            &strategy,
            chan,
            obs,
            Persistence::default(),
        )
    }

    #[test]
    fn driver_reports_early_stop_and_evals_to_the_observer() {
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
        let r = run_fedavg_observed(
            &cl,
            k,
            &cfg,
            Baseline::FedMlp,
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
        let r = run_fedavg(&cl, k, &quick_cfg(), Baseline::FedGcn);
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
        let r = run_fedavg(&cl, k, &quick_cfg(), Baseline::LocGcn);
        assert_eq!(r.comms.uplink_bytes, 0);
        assert_eq!(r.comms.downlink_bytes, 0);
        assert!(r.test_acc > 0.0);
    }

    #[test]
    fn prox_run_completes_with_sane_accuracy() {
        let (cl, k) = clients(3);
        let mut cfg = quick_cfg();
        cfg.rounds = 15;
        let r = run_fedavg(&cl, k, &cfg, Baseline::FedProx);
        assert!(r.test_acc.is_finite());
        assert!((0.0..=1.0).contains(&r.test_acc));
        assert_eq!(r.algorithm, "FedProx");
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
        let r = run_fedavg(&cl, k, &cfg, Baseline::FedMlp);
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
        let opts = Baseline::FedMlp;
        let a = run_fedavg(&cl, k, &cfg, opts);
        let b = run_fedavg(&cl, k, &cfg, opts);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history.len(), b.history.len());
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.val_acc, y.val_acc);
        }
    }

    #[test]
    fn sampled_cohort_runs_and_replays() {
        let (cl, k) = clients(4);
        let mut cfg = quick_cfg();
        cfg.rounds = 10;
        cfg.patience = 40;
        cfg.cohort = CohortConfig::fraction(0.5, 3);
        let opts = Baseline::FedMlp;
        let a = run_fedavg(&cl, k, &cfg, opts);
        let b = run_fedavg(&cl, k, &cfg, opts);
        assert!(a.test_acc.is_finite());
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.comms, b.comms);
        // Half the cohort uploads per round vs full participation.
        let full = run_fedavg(
            &cl,
            k,
            &TrainConfig {
                cohort: CohortConfig::full(),
                ..cfg.clone()
            },
            opts,
        );
        assert!(a.comms.uplink_bytes < full.comms.uplink_bytes);
    }

    #[test]
    fn faultless_simnet_matches_inproc_bit_for_bit() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (cl, k) = clients(3);
        let mut cfg = quick_cfg();
        cfg.rounds = 12;
        let opts = Baseline::FedGcn;
        let a = run_fedavg(&cl, k, &cfg, opts);
        let mut sim = SimNetChannel::new(FaultConfig::default());
        let b = run_fedavg_with(&cl, k, &cfg, opts, &mut sim);
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
        let opts = Baseline::FedGcn;
        let fault = FaultConfig {
            seed: 5,
            drop_prob: 0.25,
            max_retries: 1,
            ..Default::default()
        };
        let run = |fault: FaultConfig| {
            let mut sim = SimNetChannel::new(fault);
            run_fedavg_with(&cl, k, &cfg, opts, &mut sim)
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
        fn upload(&mut self, mut env: Envelope) {
            if let Payload::WeightUpdate { params } = &mut env.payload {
                if env.sender == 0 {
                    for t in params.iter_mut() {
                        t.data.fill(f32::NAN);
                    }
                }
            }
            self.0.upload(env);
        }
        fn server_collect(&mut self, round: u64) -> Vec<Envelope> {
            self.0.server_collect(round)
        }
        fn download(&mut self, to: u32, env: Envelope) {
            self.0.download(to, env);
        }
        fn client_collect(&mut self, id: u32, round: u64) -> Vec<Envelope> {
            self.0.client_collect(id, round)
        }
    }

    #[test]
    fn a_non_finite_upload_is_dropped_like_a_lost_frame() {
        let (cl, k) = clients(3);
        let cfg = TrainConfig {
            rounds: 4,
            patience: 4,
            eval_every: 1,
            ..TrainConfig::mini(0)
        };
        let mut mem = MemoryObserver::new();
        let r = run_fedavg_observed(
            &cl,
            k,
            &cfg,
            Baseline::FedGcn,
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
        let opts = Baseline::FedGcn;
        let r = run_fedavg(&cl, k, &cfg, opts);
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

    fn omd_clients(m: usize, seed: u64) -> (Vec<ClientData>, usize) {
        let ds = generate(&spec(DatasetName::CoraMini), seed);
        (
            setup_federation(&ds, &FederationConfig::mini(m, seed)),
            ds.n_classes,
        )
    }

    fn omd_cfg(seed: u64) -> TrainConfig {
        TrainConfig {
            rounds: 40,
            patience: 30,
            ..TrainConfig::mini(seed)
        }
    }

    fn run_omd(
        clients: &[ClientData],
        k: usize,
        cfg: &TrainConfig,
        omd: &FedOmdConfig,
    ) -> RunResult {
        run_omd_over(clients, k, cfg, omd, &mut InProcChannel::new())
    }

    fn run_omd_over(
        clients: &[ClientData],
        k: usize,
        cfg: &TrainConfig,
        omd: &FedOmdConfig,
        chan: &mut dyn Channel,
    ) -> RunResult {
        let strategy = Strategy::FedOmd(*omd);
        let persist = Persistence::default();
        run(clients, k, cfg, &strategy, chan, &mut NullObserver, persist)
    }

    #[test]
    fn fedomd_learns_above_chance() {
        let (clients, k) = omd_clients(3, 0);
        let r = run_omd(&clients, k, &omd_cfg(0), &FedOmdConfig::paper());
        assert!(
            r.test_acc > 1.5 / k as f64,
            "accuracy {} too low",
            r.test_acc
        );
        assert!(r.improved(), "no improvement over initial accuracy");
        assert_eq!(r.algorithm, "FedOMD");
    }

    #[test]
    fn stats_traffic_is_negligible_fraction() {
        // The paper's Table 3 claim: the CMD statistics cost `Nf`-ish
        // uplink versus `f²`-ish for weights — a tiny fraction.
        let (clients, k) = omd_clients(3, 1);
        let mut cfg = omd_cfg(1);
        cfg.rounds = 5;
        let r = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
        assert!(r.comms.stats_uplink_bytes > 0);
        assert!(
            r.comms.stats_fraction() < 0.15,
            "stats are {}% of uplink — not negligible",
            100.0 * r.comms.stats_fraction()
        );
    }

    #[test]
    fn ablations_run_and_produce_finite_accuracy() {
        let (clients, k) = omd_clients(3, 2);
        let mut cfg = omd_cfg(2);
        cfg.rounds = 12;
        for omd in [
            FedOmdConfig::paper(),
            FedOmdConfig::ortho_only(),
            FedOmdConfig::cmd_only(),
            FedOmdConfig {
                use_ortho: false,
                use_cmd: false,
                ..FedOmdConfig::paper()
            },
        ] {
            let r = run_omd(&clients, k, &cfg, &omd);
            assert!(r.test_acc.is_finite());
            assert!((0.0..=1.0).contains(&r.test_acc));
        }
    }

    #[test]
    fn stats_cost_vanishes_as_the_model_grows() {
        // The Table 3 asymptotics, measured at exact frame sizes: the
        // statistics uplink is O(L·d) per client per round (5 vectors of
        // dimension d per hidden layer) while the weight uplink is O(d²),
        // so the stats fraction must shrink as the hidden dim grows — at
        // the paper's scale (f = 1433, d = 64) it is well under a percent.
        let (clients, k) = omd_clients(3, 1);
        let ratio_at = |hidden: usize| {
            let cfg = TrainConfig {
                rounds: 2,
                patience: 30,
                hidden_dim: hidden,
                ..TrainConfig::mini(1)
            };
            let r = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
            let weight_bytes = r.comms.uplink_bytes - r.comms.stats_uplink_bytes;
            r.comms.stats_uplink_bytes as f64 / weight_bytes as f64
        };
        let small = ratio_at(16);
        let large = ratio_at(64);
        assert!(
            small < 0.10,
            "stats are {:.1}% of weight uplink at d=16",
            100.0 * small
        );
        assert!(
            large < 0.07,
            "stats are {:.1}% of weight uplink at d=64",
            100.0 * large
        );
        assert!(large < small, "stats fraction must shrink with model size");
    }

    #[test]
    fn fedomd_faultless_simnet_matches_inproc_bit_for_bit() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (clients, k) = omd_clients(2, 6);
        let mut cfg = omd_cfg(6);
        cfg.rounds = 8;
        let a = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
        let mut sim = SimNetChannel::new(FaultConfig::default());
        let b = run_omd_over(&clients, k, &cfg, &FedOmdConfig::paper(), &mut sim);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.comms, b.comms);
        assert_eq!(b.comms.dropped_messages, 0);
    }

    #[test]
    fn lossy_network_degrades_gracefully_and_replays() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (clients, k) = omd_clients(3, 7);
        let mut cfg = omd_cfg(7);
        cfg.rounds = 25;
        let fault = FaultConfig {
            seed: 9,
            drop_prob: 0.2,
            max_retries: 1,
            ..Default::default()
        };
        let run_lossy = |fault: FaultConfig| {
            let mut sim = SimNetChannel::new(fault);
            run_omd_over(&clients, k, &cfg, &FedOmdConfig::paper(), &mut sim)
        };
        let r = run_lossy(fault.clone());
        // Drops hit every exchange: stats rounds degrade to CMD-less
        // training for the affected clients, FedAvg degrades to partial
        // aggregation — and the run still converges sanely.
        assert!(
            r.comms.dropped_messages > 0,
            "20% loss over 25 rounds must drop something"
        );
        assert!(r.test_acc.is_finite());
        assert!(
            r.test_acc > 1.0 / k as f64,
            "accuracy {} at or below chance",
            r.test_acc
        );
        let r2 = run_lossy(fault);
        assert_eq!(
            r.test_acc, r2.test_acc,
            "same fault seed must replay identically"
        );
        assert_eq!(r.comms, r2.comms);
    }

    /// Hands each upload phase to a SimNet in reverse sender order: the
    /// uploads are held until every client due to upload has, then sent
    /// highest sender first. With a full cohort every client uploads its
    /// means and weights; moments come from the clients the means reached.
    struct ReversedUploads {
        net: fedomd_transport::SimNetChannel,
        clients: usize,
        held: Vec<Envelope>,
        /// Clients the round's global means reached.
        means_reached: usize,
    }

    impl Channel for ReversedUploads {
        fn upload(&mut self, env: Envelope) {
            self.held.push(env);
        }
        fn server_collect(&mut self, round: u64) -> Vec<Envelope> {
            let due = match self.held.first().map(|e| &e.payload) {
                Some(Payload::StatsRound2 { .. }) => self.means_reached,
                _ => self.clients,
            };
            if self.held.len() == due {
                if matches!(self.held[0].payload, Payload::StatsRound1 { .. }) {
                    self.means_reached = 0;
                }
                for env in self.held.drain(..).rev() {
                    self.net.upload(env);
                }
            }
            self.net.server_collect(round)
        }
        fn download(&mut self, to: u32, env: Envelope) {
            self.net.download(to, env);
        }
        fn client_collect(&mut self, id: u32, round: u64) -> Vec<Envelope> {
            let got = self.net.client_collect(id, round);
            let means = |e: &Envelope| matches!(&e.payload, Payload::GlobalStats { moments, .. } if moments.is_empty());
            self.means_reached += usize::from(got.iter().any(means));
            got
        }
        fn drain_lost(&mut self) -> Vec<fedomd_transport::LostFrame> {
            self.net.drain_lost()
        }
    }

    #[test]
    fn a_lossy_run_does_not_depend_on_the_upload_order() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (clients, k) = omd_clients(4, 3);
        let mut cfg = omd_cfg(3);
        cfg.rounds = 20;
        let fault = FaultConfig {
            seed: 13,
            drop_prob: 0.2,
            max_retries: 1,
            jitter_ms: 2.0,
            ..Default::default()
        };
        let omd = FedOmdConfig::paper();
        let plain = run_omd_over(
            &clients,
            k,
            &cfg,
            &omd,
            &mut SimNetChannel::new(fault.clone()),
        );
        let mut reversed = ReversedUploads {
            net: SimNetChannel::new(fault),
            clients: clients.len(),
            held: Vec::new(),
            means_reached: 0,
        };
        let rev = run_omd_over(&clients, k, &cfg, &omd, &mut reversed);
        assert!(reversed.held.is_empty(), "every held upload was sent");
        assert!(plain.comms.dropped_messages > 0, "the run must lose frames");
        let bits = |r: &RunResult| {
            let history: Vec<_> = r
                .history
                .iter()
                .map(|h| {
                    (
                        h.round,
                        h.train_loss.to_bits(),
                        h.val_acc.to_bits(),
                        h.test_acc.to_bits(),
                    )
                })
                .collect();
            (
                history,
                r.test_acc.to_bits(),
                r.val_acc.to_bits(),
                r.best_round,
            )
        };
        assert_eq!(bits(&plain), bits(&rev));
        assert_eq!(plain.comms, rev.comms);
    }

    #[test]
    fn no_cmd_means_no_stats_traffic() {
        let (clients, k) = omd_clients(2, 3);
        let mut cfg = omd_cfg(3);
        cfg.rounds = 4;
        let r = run_omd(&clients, k, &cfg, &FedOmdConfig::ortho_only());
        assert_eq!(r.comms.stats_uplink_bytes, 0);
    }

    #[test]
    fn fedomd_deterministic_per_seed() {
        let (clients, k) = omd_clients(2, 4);
        let mut cfg = omd_cfg(4);
        cfg.rounds = 8;
        let a = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
        let b = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.comms, b.comms);
    }

    #[test]
    fn deeper_stacks_run() {
        let (clients, k) = omd_clients(2, 5);
        let mut cfg = omd_cfg(5);
        cfg.rounds = 6;
        let omd = FedOmdConfig {
            hidden_layers: 4,
            ..FedOmdConfig::paper()
        };
        let r = run_omd(&clients, k, &cfg, &omd);
        assert!(r.test_acc.is_finite());
    }

    #[test]
    fn fedomd_sampled_cohort_trains_subset_and_stays_synchronised() {
        let (clients, k) = omd_clients(4, 8);
        let mut cfg = omd_cfg(8);
        cfg.rounds = 4;
        cfg.patience = 40;
        cfg.cohort = CohortConfig::fraction(0.5, 21);
        let mut mem = MemoryObserver::new();
        let r = run(
            &clients,
            k,
            &cfg,
            &Strategy::FedOmd(FedOmdConfig::paper()),
            &mut InProcChannel::new(),
            &mut mem,
            Persistence::default(),
        );
        // Exactly the sampled half of the federation trains each round...
        assert_eq!(mem.count("local_step_done"), 4 * 2);
        assert!(r.test_acc.is_finite());

        // ...and uplink traffic shrinks accordingly versus full
        // participation (2 of 4 uploads per round).
        let full_cfg = TrainConfig {
            cohort: CohortConfig::full(),
            ..cfg.clone()
        };
        let full = run_omd(&clients, k, &full_cfg, &FedOmdConfig::paper());
        assert!(
            r.comms.uplink_bytes < full.comms.uplink_bytes,
            "sampling must cut uplink traffic: {} vs {}",
            r.comms.uplink_bytes,
            full.comms.uplink_bytes
        );
    }

    #[test]
    fn fedomd_sampled_runs_replay_per_cohort_seed() {
        let (clients, k) = omd_clients(4, 9);
        let mut cfg = omd_cfg(9);
        cfg.rounds = 6;
        cfg.cohort = CohortConfig::fraction(0.5, 5);
        let a = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
        let b = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.comms, b.comms);
        // A different sampling seed draws different cohorts → different
        // traffic pattern is possible but the run still completes.
        cfg.cohort.seed = 6;
        let c = run_omd(&clients, k, &cfg, &FedOmdConfig::paper());
        assert!(c.test_acc.is_finite());
    }

    fn weights(v: f32) -> Payload {
        Payload::WeightUpdate {
            params: vec![fedomd_transport::Tensor {
                rows: 1,
                cols: 2,
                data: vec![v, -v],
            }],
        }
    }

    fn encoded_len(round: u64, sender: u32, payload: Payload) -> u64 {
        Envelope {
            round,
            sender,
            payload,
        }
        .encoded_len() as u64
    }

    #[test]
    fn faultless_channel_reports_sends_and_no_drops() {
        let mut chan = InProcChannel::new();
        let mut server = ServerRound::new(false);
        let mut mem = MemoryObserver::new();
        up(&mut chan, &mut mem, &mut server, 0, 0, weights(1.0));
        up(&mut chan, &mut mem, &mut server, 0, 1, weights(2.0));
        let ack = Payload::Control(fedomd_transport::Control::Ack);
        let got: Vec<Payload> = send(&mut chan, &mut mem, 0, 0, ack.clone()).collect();
        assert_eq!(got, std::slice::from_ref(&ack));
        assert_eq!(
            mem.events,
            [
                RoundEvent::FrameSent {
                    kind: "WeightUpdate",
                    bytes: encoded_len(0, 0, weights(1.0)),
                },
                RoundEvent::FrameSent {
                    kind: "WeightUpdate",
                    bytes: encoded_len(0, 1, weights(2.0)),
                },
                RoundEvent::FrameSent {
                    kind: "Control",
                    bytes: encoded_len(0, SERVER_SENDER, ack),
                },
            ]
        );
    }

    #[test]
    fn a_lost_frame_becomes_one_dropped_event_with_the_sent_kind_and_bytes() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let mut chan = SimNetChannel::new(FaultConfig {
            drop_prob: 1.0,
            max_retries: 0,
            ..Default::default()
        });
        let mut server = ServerRound::new(false);
        let mut mem = MemoryObserver::new();
        up(&mut chan, &mut mem, &mut server, 0, 3, weights(1.0));
        let model = Payload::GlobalModel { params: Vec::new() };
        assert_eq!(send(&mut chan, &mut mem, 0, 3, model.clone()).count(), 0);
        let up_bytes = encoded_len(0, 3, weights(1.0));
        let down_bytes = encoded_len(0, SERVER_SENDER, model);
        assert_eq!(
            mem.events,
            [
                RoundEvent::FrameSent {
                    kind: "WeightUpdate",
                    bytes: up_bytes,
                },
                RoundEvent::FrameDropped {
                    kind: "WeightUpdate",
                    bytes: up_bytes,
                },
                RoundEvent::FrameSent {
                    kind: "GlobalModel",
                    bytes: down_bytes,
                },
                RoundEvent::FrameDropped {
                    kind: "GlobalModel",
                    bytes: down_bytes,
                },
            ]
        );
    }

    #[test]
    fn the_ledger_is_the_fold_of_a_lossy_fedomd_trace() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (clients, k) = omd_clients(3, 7);
        let mut cfg = omd_cfg(7);
        cfg.rounds = 10;
        let mut sim = SimNetChannel::new(FaultConfig {
            seed: 9,
            drop_prob: 0.2,
            max_retries: 1,
            ..Default::default()
        });
        let mut mem = MemoryObserver::new();
        let r = run(
            &clients,
            k,
            &cfg,
            &Strategy::FedOmd(FedOmdConfig::paper()),
            &mut sim,
            &mut mem,
            Persistence::default(),
        );
        let mut folded = CommsLog::new();
        for e in &mem.events {
            folded.on_event(e);
            // Each round closes on the cumulative ledger so far.
            if let RoundEvent::RoundFinished {
                uplink_bytes,
                downlink_bytes,
                dropped_messages,
                ..
            } = *e
            {
                assert_eq!(uplink_bytes, folded.uplink_bytes);
                assert_eq!(downlink_bytes, folded.downlink_bytes);
                assert_eq!(dropped_messages, folded.dropped_messages);
            }
        }
        assert_eq!(folded, r.comms);
        assert!(r.comms.dropped_messages > 0, "20% loss dropped nothing");
        assert_eq!(mem.count("frame_dropped") as u64, r.comms.dropped_messages);
    }

    /// Keeps every round's snapshot.
    #[derive(Default)]
    struct Snapshots(Vec<ResumeState>);

    impl CheckpointSink for Snapshots {
        fn every(&self) -> usize {
            1
        }
        fn save(&mut self, state: ResumeState, _obs: &mut dyn RoundObserver) {
            self.0.push(state);
        }
    }

    /// Runs `strategy` over a lossy SimNet (no retries, so a share of the
    /// broadcasts is lost and those sessions keep their own weights), half
    /// the federation a round, and checks every round's pooled accuracy
    /// against each session's own evaluation, rebuilt from that round's
    /// snapshot of its weights. Returns how many rounds ended with some
    /// sessions sharing one model and others on weights of their own.
    fn assert_eval_is_per_session(strategy: &Strategy, clients: &[ClientData], k: usize) -> usize {
        use crate::helpers::predict;
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let cfg = TrainConfig {
            rounds: 6,
            patience: 6,
            eval_every: 1,
            cohort: CohortConfig::fraction(0.5, 1),
            ..TrainConfig::mini(0)
        };
        let mut sim = SimNetChannel::new(FaultConfig {
            seed: 3,
            drop_prob: 0.3,
            max_retries: 0,
            ..Default::default()
        });
        let mut snaps = Snapshots::default();
        let persist = Persistence {
            resume: None,
            sink: Some(&mut snaps),
        };
        let r = run(
            clients,
            k,
            &cfg,
            strategy,
            &mut sim,
            &mut NullObserver,
            persist,
        );
        assert_eq!(r.comms.dropped_messages > 0, strategy.aggregates());
        assert_eq!(r.history.len(), snaps.0.len());
        let (mut sessions, shards) =
            ClientSession::federation(&cfg, strategy, clients, k, &mut NullObserver);
        let mut mixed = 0;
        for (h, snap) in r.history.iter().zip(&snaps.0) {
            let mut counts = EvalCounts::default();
            for ((s, client), params) in sessions.iter_mut().zip(&shards[..]).zip(&snap.params) {
                s.model.set_params(params);
                counts += EvalCounts::of(&predict(s.model(), client), client);
            }
            assert_eq!(
                (h.val_acc, h.test_acc),
                counts.accuracy(),
                "{} round {}",
                strategy.name(),
                h.round
            );
            let sharing = |p: &Vec<Matrix>| snap.params.iter().filter(|q| *q == p).count();
            let shared = snap.params.iter().map(sharing).max().unwrap_or(0);
            mixed += usize::from(shared > 1 && shared < snap.params.len());
        }
        mixed
    }

    /// Sessions that missed a broadcast are evaluated on their own
    /// weights, the rest in stacked blocks: 150 planted shards of ~16
    /// rows, so a round's spectators fill more than one block.
    #[test]
    fn a_partial_broadcast_evaluates_like_each_session_alone() {
        use crate::client::setup_federation_planted;
        use fedomd_data::SynthParams;
        let ds = generate(&SynthParams::many_party(150), 0);
        let clients = setup_federation_planted(&ds, &FederationConfig::mini(150, 0));
        let entries = |c: &ClientData| c.n_nodes() * c.input.n_features();
        assert!(clients.iter().map(entries).sum::<usize>() > 2 * EVAL_BLOCK_ENTRIES);
        for strategy in [
            Strategy::FedOmd(FedOmdConfig::paper()),
            Strategy::Baseline(Baseline::FedGcn),
            Strategy::Baseline(Baseline::Scaffold),
        ] {
            let mixed = assert_eval_is_per_session(&strategy, &clients, ds.n_classes);
            assert!(mixed > 0, "{}: no round mixed weights", strategy.name());
        }
    }

    /// FedLIT's model reads its own per-client operands, not its input, so
    /// its sessions are never stacked: its pooled counts are each
    /// session's own. The same holds for FedSage+'s mended shards (stacked)
    /// and LocGCN's independent models (never broadcast).
    #[test]
    fn fedlit_fedsage_and_locgcn_evaluate_like_each_session_alone() {
        let (clients, k) = clients(6);
        for b in [Baseline::FedLit, Baseline::FedSagePlus, Baseline::LocGcn] {
            assert_eval_is_per_session(&Strategy::Baseline(b), &clients, k);
        }
    }

    /// Everything a run reports but its wall-clock time: the result's
    /// numbers as bits, its ledger, and every event but `PhaseDone`.
    fn run_on_workers(
        workers: usize,
        strategy: &Strategy,
        clients: &[ClientData],
        k: usize,
        cfg: &TrainConfig,
    ) -> (Vec<u64>, CommsLog, Vec<String>) {
        let mut mem = MemoryObserver::new();
        let r = par::with_workers(workers, || {
            run(
                clients,
                k,
                cfg,
                strategy,
                &mut InProcChannel::new(),
                &mut mem,
                Persistence::default(),
            )
        });
        let mut bits = vec![
            r.test_acc.to_bits(),
            r.val_acc.to_bits(),
            r.best_round as u64,
        ];
        for h in &r.history {
            bits.extend([
                h.round as u64,
                h.train_loss.to_bits(),
                h.val_acc.to_bits(),
                h.test_acc.to_bits(),
            ]);
        }
        let events = mem
            .events
            .iter()
            .filter(|e| !matches!(e, RoundEvent::PhaseDone { .. }))
            .map(|e| format!("{e:?}"))
            .collect();
        (bits, r.comms, events)
    }

    /// A run is the same bits at 1, 2 and 4 workers: every sweep returns
    /// its results in session order, and everything that depends on order
    /// stays on the calling thread.
    fn assert_worker_count_is_invisible(
        strategy: &Strategy,
        clients: &[ClientData],
        k: usize,
        cfg: &TrainConfig,
    ) {
        let one = run_on_workers(1, strategy, clients, k, cfg);
        assert!(one.2.iter().any(|e| e.starts_with("LocalStepDone")));
        for workers in [2, 4] {
            let many = run_on_workers(workers, strategy, clients, k, cfg);
            assert_eq!(one.0, many.0, "{} at {workers} workers", strategy.name());
            assert_eq!(one.1, many.1, "{} at {workers} workers", strategy.name());
            assert_eq!(one.2, many.2, "{} at {workers} workers", strategy.name());
        }
    }

    #[test]
    fn a_run_is_the_same_at_any_worker_count() {
        let (clients, k) = clients(5);
        let cfg = TrainConfig {
            rounds: 6,
            patience: 6,
            eval_every: 1,
            ..TrainConfig::mini(0)
        };
        for strategy in [
            Strategy::FedOmd(FedOmdConfig::paper()),
            Strategy::Baseline(Baseline::FedGcn),
            Strategy::Baseline(Baseline::Scaffold),
            Strategy::Baseline(Baseline::FedSagePlus),
            Strategy::Baseline(Baseline::FedLit),
        ] {
            assert_worker_count_is_invisible(&strategy, &clients, k, &cfg);
        }
    }

    /// Half of 150 planted shards train each round; the other half are
    /// spectators whose shards fill several stacked evaluation blocks,
    /// evaluated in one sweep with the next cohort's own forwards.
    #[test]
    fn a_sampled_run_is_the_same_at_any_worker_count() {
        use crate::client::setup_federation_planted;
        use fedomd_data::SynthParams;
        let ds = generate(&SynthParams::many_party(150), 0);
        let clients = setup_federation_planted(&ds, &FederationConfig::mini(150, 0));
        let cfg = TrainConfig {
            rounds: 5,
            patience: 5,
            eval_every: 1,
            cohort: CohortConfig::fraction(0.5, 1),
            ..TrainConfig::mini(0)
        };
        let next = membership(&cfg.cohort.sample(1, clients.len()), clients.len());
        let spectator_entries: usize = clients
            .iter()
            .zip(&next)
            .filter(|(_, &keep)| !keep)
            .map(|(c, _)| c.n_nodes() * c.input.n_features())
            .sum();
        assert!(spectator_entries > 2 * EVAL_BLOCK_ENTRIES);
        for strategy in [
            Strategy::FedOmd(FedOmdConfig::paper()),
            Strategy::Baseline(Baseline::FedGcn),
        ] {
            assert_worker_count_is_invisible(&strategy, &clients, ds.n_classes, &cfg);
        }
    }

    #[test]
    fn shared_builder_reproduces_identical_inits() {
        let cfg = TrainConfig::mini(0);
        let omd = FedOmdConfig::paper();
        let a = build_fedomd_model(&cfg, &omd, 16, 4);
        let b = build_fedomd_model(&cfg, &omd, 16, 4);
        for (x, y) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }
}
