//! The FedOMD training loop (Algorithm 1).
//!
//! Per communication round:
//!
//! 1. **Sample** the round's cohort ([`fedomd_federated::CohortConfig`]):
//!    a seeded, deterministic subset of clients participates; the rest sit
//!    the round out (FedAvg partial participation).
//! 2. **Forward** (cohort, parallel): each sampled client records its
//!    Ortho-GCN forward pass on a fresh tape, producing logits and the
//!    hidden activations `Z^1..Z^{L-1}` (line 3).
//! 3. **Exchange** (2 rounds, lines 4–18): activation means up, global
//!    means down; central moments about the global mean up, global moments
//!    down — giving every sampled client the CMD targets.
//! 4. **Optimise** (cohort, parallel, lines 19–20): total loss
//!    `CE + α·L_ortho + β·d_CMD` (Eq. 12), backward, Adam step.
//! 5. **FedAvg** (server, lines 26–29): uniform weight averaging. The
//!    aggregated model is broadcast to *all* clients — participants and
//!    spectators alike — so pooled evaluation always sees a synchronised
//!    federation.
//!
//! Every exchange (phases 3 and 5) travels as encoded `fedomd-transport`
//! frames over a [`Channel`], and the server never materialises the
//! O(clients × model) vector of payloads: each envelope is folded into a
//! streaming accumulator ([`crate::protocol::MeanAccumulator`] /
//! [`crate::protocol::MomentAccumulator`] /
//! [`fedomd_federated::UpdateAccumulator`]) as it is collected, so peak
//! server aggregation memory stays O(model) even at 1k–10k client
//! cohorts. With the default in-process channel the run is deterministic
//! per seed, while a simulated lossy channel degrades gracefully: a round
//! aggregates over whichever clients actually arrived, and a client that
//! misses the global statistics simply trains without the CMD term that
//! round.
//!
//! Every milestone — round starts, per-client local steps with the CE /
//! ortho / CMD loss decomposition, frame sends and drops, both statistics
//! rounds, aggregation, evaluation — is reported to a
//! [`RoundObserver`] (`fedomd-telemetry`). Observers are pure sinks, so
//! any observer yields the exact same `RunResult` as
//! [`fedomd_telemetry::NullObserver`] (golden-tested). The [`crate::FedRun`] builder is the entry point;
//! [`run_fedomd_observed`] / [`run_fedomd_resumable`] are the loop it
//! dispatches to.

use fedomd_metrics::Stopwatch;
use std::collections::BTreeMap;

use rayon::prelude::*;

use fedomd_autograd::{CmdTargets, Tape, Var, Workspace};
use fedomd_federated::engine::RoundDriver;
use fedomd_federated::helpers::{fold_weight_update, UpdateAccumulator};
use fedomd_federated::{
    ClientData, Direction, Persistence, ResumeState, RunResult, StatsCache, TrafficClass,
    TrainConfig,
};
use fedomd_nn::{Adam, ForwardOut, Model, Optimizer};
use fedomd_telemetry::{ObservedChannel, Phase, PhaseStopwatch, RoundEvent, RoundObserver};
use fedomd_tensor::Matrix;
use fedomd_transport::{from_tensors, to_tensors, Channel, Envelope, Payload, SERVER_SENDER};

use crate::config::FedOmdConfig;
use crate::protocol::{
    build_targets, client_means, client_moments_about, GlobalStats, MeanAccumulator,
    MomentAccumulator,
};

/// Runs FedOMD with every statistics and weight exchange travelling as
/// encoded frames over `chan` and every round milestone reported to `obs`.
pub fn run_fedomd_observed(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    omd: &FedOmdConfig,
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
) -> RunResult {
    run_fedomd_resumable(
        clients,
        n_classes,
        cfg,
        omd,
        chan,
        obs,
        Persistence::default(),
    )
}

/// Reports each sampled client's Phase-3 loss decomposition to `obs`.
fn emit_local_steps(losses: &[Option<StepLosses>], obs: &mut dyn RoundObserver) {
    for (client, &(loss, ce, ortho, cmd)) in losses
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.as_ref().map(|l| (i, l)))
    {
        obs.on_event(&RoundEvent::LocalStepDone {
            client: client as u32,
            epoch: 0,
            loss: loss as f64,
            ce: ce as f64,
            ortho: ortho as f64,
            cmd: cmd as f64,
        });
    }
}

/// [`run_fedomd_observed`] with checkpoint/resume wiring: restores
/// `persist.resume` (per-client parameters, Adam moments, driver
/// bookkeeping, channel fault-stream cursor) before the loop, enters at
/// the restored round, and hands `persist.sink` a [`ResumeState`] snapshot
/// every `sink.every()` rounds — including the last aggregated global
/// model and global statistics, so a served checkpoint carries the full
/// round outcome. A resumed run is bit-identical to the same run left
/// uninterrupted: every RNG stream — including the cohort sampler — is
/// derived from `(seed, round)` or a checkpointed cursor, and snapshots
/// land on round boundaries where the channel has no frames in flight.
///
/// # Panics
/// Panics with no clients or an invalid cohort configuration.
pub fn run_fedomd_resumable(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    omd: &FedOmdConfig,
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
    mut persist: Persistence<'_>,
) -> RunResult {
    assert!(!clients.is_empty(), "run_fedomd: no clients");
    #[expect(clippy::panic, reason = "documented contract (see `# Panics`)")]
    if let Err(e) = cfg.validate(clients.len()) {
        panic!("run_fedomd: {e}");
    }
    let f = clients[0].input.n_features();
    // Common global init (the server distributes W₀, paper Phase 1),
    // through the same constructor a standalone `fedomd-client` process
    // uses, so the two deployments cannot drift apart.
    let mut models: Vec<Box<dyn Model>> = clients
        .iter()
        .map(|_| crate::deploy::build_fedomd_model(cfg, omd, f, n_classes))
        .collect();
    let mut optimizers: Vec<Adam> = models
        .iter()
        .map(|_| Adam::new(cfg.lr, cfg.weight_decay))
        .collect();

    // The last aggregated global model / statistics, tracked only when a
    // sink wants snapshots (pure bookkeeping: never read by the loop).
    let track = persist.sink.is_some();
    let mut last_global: Option<Vec<Matrix>> = None;
    let mut last_stats: Option<StatsCache> = None;

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
        for (mo, p) in models.iter_mut().zip(&resume.params) {
            mo.set_params(p);
        }
        // The Newton–Schulz cadence counts optimiser steps; restoring the
        // parameters without the counter would shift every later NS pass.
        for (mo, &steps) in models.iter_mut().zip(&resume.model_steps) {
            mo.set_steps(steps as usize);
        }
        for (opt, st) in optimizers.iter_mut().zip(resume.optim) {
            opt.set_state(st);
        }
        chan.restore_state(&resume.channel);
        last_global = resume.global;
        last_stats = resume.stats;
        driver = RoundDriver::resume(cfg, resume.driver);
        start_round = resume.next_round;
    } else {
        driver = RoundDriver::new(cfg);
        start_round = 0;
    }
    let m = clients.len();
    driver.announce("FedOMD", m, obs);
    if start_round > 0 {
        obs.on_event(&RoundEvent::Resumed {
            round: start_round as u64,
        });
    }
    let mut chan = ObservedChannel::new(chan);
    // One buffer pool per client, threaded through the forward tape and
    // the backward/step tape of every round the client is sampled into.
    let mut workspaces: Vec<Workspace> = models.iter().map(|_| Workspace::new()).collect();

    for round in start_round..cfg.rounds {
        // A checkpoint taken after early stopping resumes already-stopped.
        if driver.stopped() {
            break;
        }
        obs.on_event(&RoundEvent::RoundStarted {
            round: round as u64,
        });
        // The round's cohort: pure function of (cohort seed, round), so a
        // resumed run replays the same participation schedule.
        let cohort = cfg.cohort.sample(round as u64, m);
        let mut in_cohort = vec![false; m];
        for &i in &cohort {
            in_cohort[i] = true;
        }

        // --- Phase 1: forward passes (cohort, parallel) ---
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let start = Stopwatch::start();
        let sessions: Vec<Option<(Tape, ForwardOut)>> = models
            .par_iter()
            .zip(clients.par_iter())
            .zip(workspaces.par_iter_mut())
            .zip(in_cohort.par_iter())
            .map(|(((model, client), ws), &active)| {
                if !active {
                    return None;
                }
                let mut tape = Tape::with_workspace(std::mem::take(ws));
                let out = model.forward(&mut tape, &client.input);
                Some((tape, out))
            })
            .collect();
        driver.timer.add("client", start.elapsed());
        sw.finish(obs);

        // --- Phase 2: the 2-round statistics exchange, over the channel ---
        // The server folds every envelope into a streaming accumulator as
        // it is collected; no per-client payload vector is materialised.
        let targets: Vec<Option<Vec<CmdTargets>>> = if omd.use_cmd {
            let sw = PhaseStopwatch::start(Phase::Comms);
            let start = Stopwatch::start();
            let per_client_hidden: Vec<Option<Vec<&Matrix>>> = sessions
                .iter()
                .map(|s| {
                    s.as_ref()
                        .map(|(tape, out)| out.hidden.iter().map(|&h| tape.value(h)).collect())
                })
                .collect();
            let r = round as u64;

            // Round 1 up: per-layer means and the local sample count. Each
            // upload is collected and folded immediately, so the uplink
            // queue never holds more than one stats payload.
            // The server remembers each reporter's sample count: round-2
            // moments are weighted by the n_i announced in round 1.
            let mut round1_n: BTreeMap<u32, usize> = BTreeMap::new();
            let mut mean_acc = MeanAccumulator::new();
            for (i, h) in per_client_hidden.iter().enumerate() {
                let Some(h) = h else { continue };
                let bytes = chan.upload(Envelope {
                    round: r,
                    sender: i as u32,
                    payload: Payload::StatsRound1 {
                        means: client_means(h),
                        n_samples: h.first().map_or(0, |z| z.rows()) as u64,
                    },
                });
                driver
                    .comms
                    .record(Direction::Uplink, TrafficClass::Stats, bytes as u64);
                for env in chan.server_collect(r) {
                    if let Payload::StatsRound1 { means, n_samples } = env.payload {
                        // A malformed payload (impossible in-process:
                        // every client builds the same model shape)
                        // degrades exactly like a dropped frame.
                        if mean_acc.push(&means, n_samples as usize).is_ok() {
                            round1_n.insert(env.sender, n_samples as usize);
                        }
                    }
                }
            }
            chan.flush_into(obs);
            obs.on_event(&RoundEvent::StatsRound1Done {
                participants: mean_acc.pushed() as usize,
            });
            let global_means: Option<Vec<Vec<f32>>> = mean_acc.finish().ok();

            // Round 1 down: global means, to the cohort (moments are not
            // known yet, so the GlobalStats frame carries an empty moment
            // list).
            let mut client_gmeans: Vec<Option<Vec<Vec<f32>>>> = (0..m).map(|_| None).collect();
            if let Some(means) = &global_means {
                for &i in &cohort {
                    let bytes = chan.download(
                        i as u32,
                        Envelope {
                            round: r,
                            sender: SERVER_SENDER,
                            payload: Payload::GlobalStats {
                                means: means.clone(),
                                moments: Vec::new(),
                            },
                        },
                    );
                    driver
                        .comms
                        .record(Direction::Downlink, TrafficClass::Stats, bytes as u64);
                    for env in chan.client_collect(i as u32, r) {
                        if let Payload::GlobalStats { means, .. } = env.payload {
                            client_gmeans[i] = Some(means);
                        }
                    }
                }
            }
            chan.flush_into(obs);

            // Round 2 up: central moments about the global mean, folded on
            // arrival. A client that never received the means sits this
            // round out.
            let mut moment_acc = MomentAccumulator::new();
            for (i, h) in per_client_hidden.iter().enumerate() {
                let Some(h) = h else { continue };
                let Some(means) = &client_gmeans[i] else {
                    continue;
                };
                let bytes = chan.upload(Envelope {
                    round: r,
                    sender: i as u32,
                    payload: Payload::StatsRound2 {
                        moments: client_moments_about(h, means, omd.max_moment),
                    },
                });
                driver
                    .comms
                    .record(Direction::Uplink, TrafficClass::Stats, bytes as u64);
                for env in chan.server_collect(r) {
                    if let Payload::StatsRound2 { moments } = env.payload {
                        if let Some(&n) = round1_n.get(&env.sender) {
                            let _ok = moment_acc.push(&moments, n).is_ok();
                        }
                    }
                }
            }
            chan.flush_into(obs);
            obs.on_event(&RoundEvent::StatsRound2Done {
                participants: moment_acc.pushed() as usize,
            });

            // Round 2 down: the full global stats, to the cohort; each
            // client that receives them builds its CMD targets, the rest
            // train without the term.
            let mut per_client: Vec<Option<Vec<CmdTargets>>> = (0..m).map(|_| None).collect();
            if let Some(means) = &global_means {
                if let Ok(moments) = moment_acc.finish() {
                    if track {
                        last_stats = Some(StatsCache {
                            means: means.clone(),
                            moments: moments.clone(),
                        });
                    }
                    for &i in &cohort {
                        let bytes = chan.download(
                            i as u32,
                            Envelope {
                                round: r,
                                sender: SERVER_SENDER,
                                payload: Payload::GlobalStats {
                                    means: means.clone(),
                                    moments: moments.clone(),
                                },
                            },
                        );
                        driver
                            .comms
                            .record(Direction::Downlink, TrafficClass::Stats, bytes as u64);
                        for env in chan.client_collect(i as u32, r) {
                            if let Payload::GlobalStats { means, moments } = env.payload {
                                per_client[i] =
                                    Some(build_targets(&GlobalStats { means, moments }));
                            }
                        }
                    }
                }
            }
            chan.flush_into(obs);
            driver.timer.add("server", start.elapsed());
            sw.finish(obs);
            per_client
        } else {
            (0..m).map(|_| None).collect()
        };

        // --- Phase 3: losses, backward, local steps (cohort, parallel) ---
        // Per sampled client: (total, ce, scaled ortho, scaled cmd) loss
        // readings; `None` for clients outside the cohort.
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let start = Stopwatch::start();
        let losses: Vec<Option<StepLosses>> = sessions
            .into_par_iter()
            .zip(models.par_iter_mut())
            .zip(optimizers.par_iter_mut())
            .zip(clients.par_iter())
            .zip(targets.par_iter())
            .zip(workspaces.par_iter_mut())
            .map(|(((((session, model), opt), client), targets), ws)| {
                let (tape, out) = session?;
                let (recycled, step) = optimise_client(
                    omd,
                    tape,
                    &out,
                    model.as_mut(),
                    opt,
                    client,
                    targets.as_deref(),
                );
                *ws = recycled;
                Some(step)
            })
            .collect();
        driver.timer.add("client", start.elapsed());
        emit_local_steps(&losses, obs);
        sw.finish(obs);

        // --- Phase 4: FedAvg over the channel (partial under faults) ---
        // Interleaved upload → collect → fold: the uplink queue holds at
        // most one weight update at a time and the accumulator keeps
        // AGG_LANES f64 partials, so server aggregation memory is
        // O(model) regardless of cohort size.
        let start = Stopwatch::start();
        let sw = PhaseStopwatch::start(Phase::Comms);
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
        // Straggler drain: both in-process channels resolve every pending
        // frame at the first collect after its upload, but a buffering
        // channel impl may surface late arrivals here.
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
            if track {
                last_global = Some(global.clone());
            }
            obs.on_event(&RoundEvent::AggregationDone { participants });
            let sw = PhaseStopwatch::start(Phase::Comms);
            // Broadcast to every client — spectators included — so the
            // federation stays synchronised for pooled evaluation.
            for (i, mo) in models.iter_mut().enumerate() {
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
                        mo.set_params(&from_tensors(params));
                    }
                }
            }
            chan.flush_into(obs);
            sw.finish(obs);
        } else {
            obs.on_event(&RoundEvent::AggregationDone { participants: 0 });
        }
        driver.comms.sync_dropped(chan.stats().dropped_frames);
        driver.timer.add("server", start.elapsed());

        let active: Vec<f64> = losses
            .iter()
            .filter_map(|l| l.map(|(loss, ..)| loss as f64))
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
                    params: models.iter().map(|mo| mo.params()).collect(),
                    optim: optimizers.iter().map(Adam::state).collect(),
                    model_steps: models.iter().map(|mo| mo.steps() as u64).collect(),
                    driver: driver.snapshot(),
                    channel: chan.export_state(),
                    global: last_global.clone(),
                    stats: last_stats.clone(),
                };
                sink.save(state, obs);
            }
        }
        if driver.stopped() {
            break;
        }
    }
    driver.finish_observed("FedOMD", obs)
}

/// One Phase-3 step's `(total, ce, scaled ortho, scaled cmd)` loss readings.
pub(crate) type StepLosses = (f32, f32, f32, f32);

/// One client's Phase-3 turn (Algorithm 1 lines 19–20): builds
/// `CE + α·L_ortho + β·d_CMD` (Eq. 12) on the forward pass recorded in
/// `tape`/`out`, runs backward, and takes the Adam step. `targets` is
/// `None` when the client never received this round's global statistics —
/// it then trains without the CMD term. Returns the tape's recycled buffer
/// pool and the loss readings.
///
/// The single definition of the local objective: the in-process trainer
/// and the multi-process client loop (`crate::client_loop`) both call it,
/// so the two deployments cannot drift apart.
pub(crate) fn optimise_client(
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
        if let Some(pen) = sum_terms(&mut tape, out.ortho_weight_vars.to_vec(), |t, w| {
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
        if let Some(cmd) = sum_cmd(
            &mut tape,
            &out.hidden[..n_constrained],
            &targets[..n_constrained],
            omd.width,
            omd.cmd_mean_scale,
        ) {
            let scaled = tape.scale(cmd, omd.beta);
            cmd_term = Some(scaled);
            loss = tape.add(loss, scaled);
        }
    }
    tape.backward(loss);

    let grads: Vec<Matrix> = out
        .param_vars
        .iter()
        .map(|&v| tape.grad_or_zeros(v))
        .collect();
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
    let losses = (
        tape.scalar(loss),
        tape.scalar(ce),
        ortho_term.map_or(0.0, |v| tape.scalar(v)),
        cmd_term.map_or(0.0, |v| tape.scalar(v)),
    );
    (tape.recycle(), losses)
}

/// Sums `make(tape, v)` over `vars` on the tape (None when empty).
fn sum_terms(tape: &mut Tape, vars: Vec<Var>, make: impl Fn(&mut Tape, Var) -> Var) -> Option<Var> {
    let mut acc: Option<Var> = None;
    for v in vars {
        let term = make(tape, v);
        acc = Some(match acc {
            None => term,
            Some(a) => tape.add(a, term),
        });
    }
    acc
}

/// Sums the per-layer CMD losses (Algorithm 1 line 19's `Σ_l`).
fn sum_cmd(
    tape: &mut Tape,
    hidden: &[Var],
    targets: &[CmdTargets],
    width: f32,
    mean_scale: f32,
) -> Option<Var> {
    assert_eq!(hidden.len(), targets.len(), "sum_cmd: layer arity mismatch");
    let mut acc: Option<Var> = None;
    for (&h, t) in hidden.iter().zip(targets) {
        let term = tape.cmd_loss_weighted(h, t, width, mean_scale);
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
    use crate::FedRun;
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_federated::{setup_federation, CohortConfig, FederationConfig};

    fn mini_clients(m: usize, seed: u64) -> (Vec<ClientData>, usize) {
        let ds = generate(&spec(DatasetName::CoraMini), seed);
        (
            setup_federation(&ds, &FederationConfig::mini(m, seed)),
            ds.n_classes,
        )
    }

    fn quick_cfg(seed: u64) -> TrainConfig {
        TrainConfig {
            rounds: 40,
            patience: 30,
            ..TrainConfig::mini(seed)
        }
    }

    fn run(clients: &[ClientData], k: usize, cfg: &TrainConfig, omd: &FedOmdConfig) -> RunResult {
        FedRun::new(clients, k).train(cfg.clone()).omd(*omd).run()
    }

    fn run_over(
        clients: &[ClientData],
        k: usize,
        cfg: &TrainConfig,
        omd: &FedOmdConfig,
        chan: &mut dyn Channel,
    ) -> RunResult {
        FedRun::new(clients, k)
            .train(cfg.clone())
            .omd(*omd)
            .channel(chan)
            .run()
    }

    #[test]
    fn fedomd_learns_above_chance() {
        let (clients, k) = mini_clients(3, 0);
        let r = run(&clients, k, &quick_cfg(0), &FedOmdConfig::paper());
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
        let (clients, k) = mini_clients(3, 1);
        let mut cfg = quick_cfg(1);
        cfg.rounds = 5;
        let r = run(&clients, k, &cfg, &FedOmdConfig::paper());
        assert!(r.comms.stats_uplink_bytes > 0);
        assert!(
            r.comms.stats_fraction() < 0.15,
            "stats are {}% of uplink — not negligible",
            100.0 * r.comms.stats_fraction()
        );
    }

    #[test]
    fn ablations_run_and_produce_finite_accuracy() {
        let (clients, k) = mini_clients(3, 2);
        let mut cfg = quick_cfg(2);
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
            let r = run(&clients, k, &cfg, &omd);
            assert!(r.test_acc.is_finite());
            assert!((0.0..=1.0).contains(&r.test_acc));
        }
    }

    #[test]
    fn stats_cost_vanishes_as_the_model_grows() {
        // The Table 3 asymptotics, measured on real encoded frames: the
        // statistics uplink is O(L·d) per client per round (5 vectors of
        // dimension d per hidden layer) while the weight uplink is O(d²),
        // so the stats fraction must shrink as the hidden dim grows — at
        // the paper's scale (f = 1433, d = 64) it is well under a percent.
        let (clients, k) = mini_clients(3, 1);
        let ratio_at = |hidden: usize| {
            let cfg = TrainConfig {
                rounds: 2,
                patience: 30,
                hidden_dim: hidden,
                ..TrainConfig::mini(1)
            };
            let r = run(&clients, k, &cfg, &FedOmdConfig::paper());
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
    fn faultless_simnet_matches_inproc_bit_for_bit() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (clients, k) = mini_clients(2, 6);
        let mut cfg = quick_cfg(6);
        cfg.rounds = 8;
        let a = run(&clients, k, &cfg, &FedOmdConfig::paper());
        let mut sim = SimNetChannel::new(FaultConfig::default());
        let b = run_over(&clients, k, &cfg, &FedOmdConfig::paper(), &mut sim);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.comms, b.comms);
        assert_eq!(b.comms.dropped_messages, 0);
    }

    #[test]
    fn lossy_network_degrades_gracefully_and_replays() {
        use fedomd_transport::{FaultConfig, SimNetChannel};
        let (clients, k) = mini_clients(3, 7);
        let mut cfg = quick_cfg(7);
        cfg.rounds = 25;
        let fault = FaultConfig {
            seed: 9,
            drop_prob: 0.2,
            max_retries: 1,
            ..Default::default()
        };
        let run_lossy = |fault: FaultConfig| {
            let mut sim = SimNetChannel::new(fault);
            run_over(&clients, k, &cfg, &FedOmdConfig::paper(), &mut sim)
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

    #[test]
    fn no_cmd_means_no_stats_traffic() {
        let (clients, k) = mini_clients(2, 3);
        let mut cfg = quick_cfg(3);
        cfg.rounds = 4;
        let r = run(&clients, k, &cfg, &FedOmdConfig::ortho_only());
        assert_eq!(r.comms.stats_uplink_bytes, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (clients, k) = mini_clients(2, 4);
        let mut cfg = quick_cfg(4);
        cfg.rounds = 8;
        let a = run(&clients, k, &cfg, &FedOmdConfig::paper());
        let b = run(&clients, k, &cfg, &FedOmdConfig::paper());
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.comms, b.comms);
    }

    #[test]
    fn deeper_stacks_run() {
        let (clients, k) = mini_clients(2, 5);
        let mut cfg = quick_cfg(5);
        cfg.rounds = 6;
        let omd = FedOmdConfig {
            hidden_layers: 4,
            ..FedOmdConfig::paper()
        };
        let r = run(&clients, k, &cfg, &omd);
        assert!(r.test_acc.is_finite());
    }

    #[test]
    fn sampled_cohort_trains_subset_and_stays_synchronised() {
        use fedomd_telemetry::MemoryObserver;
        let (clients, k) = mini_clients(4, 8);
        let mut cfg = quick_cfg(8);
        cfg.rounds = 4;
        cfg.patience = 40;
        cfg.cohort = CohortConfig::fraction(0.5, 21);
        let mut mem = MemoryObserver::new();
        let r = FedRun::new(&clients, k)
            .train(cfg.clone())
            .omd(FedOmdConfig::paper())
            .observer(&mut mem)
            .run();
        // Exactly the sampled half of the federation trains each round...
        assert_eq!(mem.count("local_step_done"), 4 * 2);
        assert!(r.test_acc.is_finite());

        // ...and uplink traffic shrinks accordingly versus full
        // participation (2 of 4 uploads per round).
        let full_cfg = TrainConfig {
            cohort: CohortConfig::full(),
            ..cfg.clone()
        };
        let full = run(&clients, k, &full_cfg, &FedOmdConfig::paper());
        assert!(
            r.comms.uplink_bytes < full.comms.uplink_bytes,
            "sampling must cut uplink traffic: {} vs {}",
            r.comms.uplink_bytes,
            full.comms.uplink_bytes
        );
    }

    #[test]
    fn sampled_runs_replay_per_cohort_seed() {
        let (clients, k) = mini_clients(4, 9);
        let mut cfg = quick_cfg(9);
        cfg.rounds = 6;
        cfg.cohort = CohortConfig::fraction(0.5, 5);
        let a = run(&clients, k, &cfg, &FedOmdConfig::paper());
        let b = run(&clients, k, &cfg, &FedOmdConfig::paper());
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history, b.history);
        assert_eq!(a.comms, b.comms);
        // A different sampling seed draws different cohorts → different
        // traffic pattern is possible but the run still completes.
        cfg.cohort.seed = 6;
        let c = run(&clients, k, &cfg, &FedOmdConfig::paper());
        assert!(c.test_acc.is_finite());
    }
}
