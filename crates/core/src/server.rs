//! The server half of a multi-process FedOMD deployment.
//!
//! [`run_fedomd_server`] drives Algorithm 1 rounds **without owning any
//! client**: it feeds the statistics and weight updates that arrive over
//! the [`Channel`] to a [`ServerRound`], broadcasts what that answers, and
//! keeps the history / early-stopping / checkpoint bookkeeping of the
//! in-process loop ([`fedomd_federated::run`]), whose server side is the
//! same `ServerRound`. Clients run
//! [`crate::client_loop::run_fedomd_client_rounds`] in their own
//! processes; over a faithful transport the pooled accuracies and round
//! history reproduce the in-process run bit for bit.
//!
//! Per round, uplink phases in order: `StatsRound1` → `StatsRound2` →
//! `WeightUpdate` → `Metrics`; downlinks interleave as in Algorithm 1,
//! plus one terminal `Control` verdict (`Ack` = continue, `EndRound` =
//! early stop) that replaces the in-process loop's shared `stopped` flag.
//! Every phase runs through the one [`Collector`] fold loop — frames fold
//! as they land, in ascending sender order — and degrades to partial
//! aggregation: the collector closes a phase once every sender it awaits
//! has reported or left, the channel's deadline bounds the wait, and the
//! round aggregates whoever made it.
//!
//! The server reports each uplink frame as `FrameSent` when the collector
//! folds it, each broadcast copy when it is written, and each frame the
//! channel discarded as `FrameDropped` after the phase or broadcast that
//! lost it; the run's byte ledger is the fold of those events.

use std::collections::{BTreeMap, BTreeSet};

use fedomd_federated::engine::{charge, open_run, report_losses, save_if_due};
use fedomd_federated::{EvalCounts, Persistence, RunResult, RunSpec, ServerRound};
use fedomd_telemetry::{NullObserver, Phase, PhaseStopwatch, RoundEvent, RoundObserver};
use fedomd_transport::{Channel, Control, Envelope, Payload, SERVER_SENDER};

/// Runs the FedOMD server rounds of `spec` over `chan` until the round
/// budget or early stopping, with checkpoint/resume via `persist` exactly as
/// [`fedomd_federated::run`] — except the snapshots carry
/// no per-client state (`params`/`optim`/`model_steps` stay empty): the
/// server's durable state is the driver bookkeeping and the last
/// aggregated global model/statistics, which is what a reconnecting
/// client needs to rejoin.
///
/// Phases wait for up to `spec.parties` reports; fewer degrade to
/// partial aggregation. The weight phase awaits only the cohort's sample
/// of the round, the cohort the clients' handshake agreed to, and
/// discards same-round updates from unsampled senders; the statistics and
/// metrics phases await the full federation.
///
/// `halt_after` is fault injection for the kill-and-resume tests: return
/// right after the named round's bookkeeping (and checkpoint, if due)
/// completes, **before** the verdict broadcast — exactly the window in
/// which a real server crash strands its clients mid-wait.
///
/// # Panics
/// Panics with no clients, an invalid cohort configuration, or a baseline
/// strategy.
pub fn run_fedomd_server(
    spec: &RunSpec,
    halt_after: Option<usize>,
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
    mut persist: Persistence<'_>,
) -> RunResult {
    let (m, cfg) = (spec.parties, &spec.train);
    assert!(m > 0, "run_fedomd_server: no clients");
    #[expect(clippy::panic, reason = "documented contract (see `# Panics`)")]
    if let Err(e) = cfg.cohort.validate(m) {
        panic!("run_fedomd_server: {e}");
    }
    #[expect(clippy::expect_used, reason = "documented contract (see `# Panics`)")]
    let omd = spec.omd().expect("run_fedomd_server: a baseline spec");
    let (mut driver, mut server, start_round) = open_run(spec, &mut persist, obs);
    let mut collector = Collector::default();
    let everyone: Vec<u32> = (0..m as u32).collect();

    for round in start_round..cfg.rounds {
        // A checkpoint taken after early stopping resumes already-stopped.
        if driver.stopped() {
            break;
        }
        obs.on_event(&RoundEvent::RoundStarted {
            round: round as u64,
        });
        let r = round as u64;
        let mut phase = |chan: &mut dyn Channel,
                         server: &mut ServerRound,
                         frames: &mut dyn RoundObserver,
                         candidates: &[u32],
                         kind: fn(&Payload) -> bool| {
            let want =
                |e: &Envelope| kind(&e.payload) && candidates.binary_search(&e.sender).is_ok();
            collector.fold(chan, frames, r, candidates, want, |env| {
                let _admitted = server.admit(env).is_ok();
            });
        };

        // --- The 2-round statistics exchange (server side) ---
        if omd.use_cmd {
            let sw = PhaseStopwatch::start(Phase::Comms);
            phase(chan, &mut server, &mut driver.tee(obs), &everyone, |p| {
                matches!(p, Payload::StatsRound1 { .. })
            });
            let (done, down) = server.close_means();
            obs.on_event(&done);
            // An empty phase (or all-zero sample counts) sends no means
            // down, so no client will report moments: the second phase
            // closes without a wait.
            if let Some(payload) = down {
                broadcast(chan, &mut driver.tee(obs), r, &everyone, payload);
                phase(chan, &mut server, &mut driver.tee(obs), &everyone, |p| {
                    matches!(p, Payload::StatsRound2 { .. })
                });
            }
            let (done, down) = server.close_moments();
            obs.on_event(&done);
            if let Some(payload) = down {
                broadcast(chan, &mut driver.tee(obs), r, &everyone, payload);
            }
            sw.finish(obs);
        }

        // --- FedAvg over whoever arrived ---
        // With a non-full cohort the phase awaits only the sampled
        // senders; a same-round update from an unsampled sender is left
        // unmatched (and discarded when the round closes). Each update is
        // folded the moment its ascending-sender turn comes up, so the
        // server folds fast clients' uploads while stragglers are still
        // training — the wait is the overlap the `FoldOverlap` segment
        // measures.
        let sw = PhaseStopwatch::start(Phase::FoldOverlap);
        let cohort: Vec<u32> = cfg
            .cohort
            .sample(r, m)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        phase(chan, &mut server, &mut driver.tee(obs), &cohort, |p| {
            matches!(p, Payload::WeightUpdate { .. })
        });
        sw.finish(obs);
        let sw = PhaseStopwatch::start(Phase::Aggregation);
        let (done, down) = server.close_updates();
        sw.finish(obs);
        obs.on_event(&done);
        if let Some(payload) = down {
            let sw = PhaseStopwatch::start(Phase::Comms);
            broadcast(chan, &mut driver.tee(obs), r, &everyone, payload);
            sw.finish(obs);
        }

        // --- Round outcome: losses and pooled eval counts from the
        // clients; this collect doubles as the end-of-round barrier, so the
        // wait is the clients' evaluation as seen from the server. ---
        let sw = PhaseStopwatch::start(Phase::Comms);
        let mut losses: Vec<f64> = Vec::new();
        let mut counts = EvalCounts::default();
        collector.fold(
            chan,
            &mut driver.tee(obs),
            r,
            &everyone,
            |e| matches!(e.payload, Payload::Metrics { .. }),
            |env| {
                if let Payload::Metrics {
                    train_loss,
                    val_correct,
                    val_total,
                    test_correct,
                    test_total,
                } = env.payload
                {
                    losses.push(train_loss as f64);
                    counts += EvalCounts {
                        val: (val_correct, val_total),
                        test: (test_correct, test_total),
                    };
                }
            },
        );
        sw.finish(obs);
        // Sender-ordered f64 sum over f32 readings: the same float summation
        // the in-process loop performs over its client-ordered losses.
        let mean_loss = if losses.is_empty() {
            0.0
        } else {
            losses.iter().sum::<f64>() / losses.len() as f64
        };
        let eval = (driver.eval_due(round) && !losses.is_empty()).then_some(counts);
        driver.end_round(round, mean_loss, eval, obs);
        save_if_due(&mut persist, round, obs, || {
            server.checkpoint(round + 1, driver.snapshot(), &[])
        });
        if halt_after == Some(round) {
            // Simulated crash: the checkpoint (if due) is durable, the
            // verdict is not sent — clients stall, then reconnect.
            return driver.finish_observed("FedOMD", obs);
        }
        // The verdict replaces the in-process loop's shared break: clients
        // wait for it on every round except their last scheduled one.
        if round + 1 < cfg.rounds {
            let sw = PhaseStopwatch::start(Phase::Comms);
            let verdict = if driver.stopped() {
                Control::EndRound
            } else {
                Control::Ack
            };
            broadcast(
                chan,
                &mut driver.tee(obs),
                r,
                &everyone,
                Payload::Control(verdict),
            );
            sw.finish(obs);
        }
        if driver.stopped() {
            break;
        }
    }
    driver.finish_observed("FedOMD", obs)
}

/// Sends `payload` to every client in `to`, reporting one `FrameSent` per
/// copy, then the copies the channel could not deliver.
fn broadcast(
    chan: &mut dyn Channel,
    frames: &mut dyn RoundObserver,
    round: u64,
    to: &[u32],
    payload: Payload,
) {
    let env = Envelope {
        round,
        sender: SERVER_SENDER,
        payload,
    };
    charge(frames, &env, to.len());
    chan.download_many(to, env);
    report_losses(chan, frames);
}

/// Phase-aware uplink collector: the one server-side collection loop, and
/// the owner of the *when does a phase close* rule.
///
/// A fast client may deliver its whole round — both statistics reports,
/// its weight update, and its metrics — before a slow one delivers
/// anything, so a single collect can surface frames of several phases at
/// once. The collector keeps the out-of-phase surplus in a stash and
/// serves each phase the first matching frame per sender.
#[derive(Default)]
struct Collector {
    stash: Vec<Envelope>,
}

impl Collector {
    /// Runs one uplink phase: applies `fold` to the first round-`round`
    /// frame matching `want` from each sender, in ascending sender order.
    /// `want` sees the whole envelope, so admission can filter on sender
    /// (cohort membership) as well as payload kind. `candidates` is the
    /// ascending list of senders the phase awaits. Out-of-order arrivals
    /// wait in a reorder window keyed by sender, so fast senders' payloads
    /// are consumed as they land and the phase never holds more than the
    /// window; an admitted sender stuck behind a gap (an earlier candidate
    /// that never reports) folds when the phase closes, still ascending.
    ///
    /// **Close rule.** The phase closes when every candidate has been
    /// seen or is no longer live for the round, or when the transport's
    /// deadline passes. The collector decides *who* is still missing and
    /// names them to [`Channel::server_await`]; the transport only blocks
    /// and answers liveness — an empty batch means none of the named
    /// senders can still deliver (or time is up). The rule is about which
    /// senders, never how many: a departed sender that already reported
    /// must not let the phase close one live sender early, and a stray
    /// frame from a sender the phase does not await must not stand in for
    /// one it does.
    ///
    /// Each folded frame is reported to `frames` as `FrameSent` as it
    /// folds, and the frames the transport discarded during the phase as
    /// `FrameDropped` when it closes.
    fn fold(
        &mut self,
        chan: &mut dyn Channel,
        frames: &mut dyn RoundObserver,
        round: u64,
        candidates: &[u32],
        want: impl Fn(&Envelope) -> bool,
        mut fold: impl FnMut(Envelope),
    ) {
        let mut fold = |env: Envelope| {
            charge(frames, &env, 1);
            fold(env);
        };
        let mut window: BTreeMap<u32, Envelope> = BTreeMap::new();
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut missing: Vec<u32> = candidates.to_vec();
        let mut next = 0usize;
        let mut batch = std::mem::take(&mut self.stash);
        loop {
            for env in batch {
                if env.round == round && want(&env) {
                    // First frame per sender wins. A duplicate is dropped
                    // here rather than stashed: no later phase can want it.
                    if seen.insert(env.sender) {
                        window.insert(env.sender, env);
                    }
                } else if env.round >= round {
                    self.stash.push(env);
                }
                // Frames of closed rounds are silently discarded; the
                // transport already listed them lost when it admitted the
                // round's deadline.
            }
            // Fold the contiguous arrived prefix of the candidate list.
            while next < candidates.len() {
                let Some(env) = window.remove(&candidates[next]) else {
                    break;
                };
                fold(env);
                next += 1;
            }
            missing.retain(|id| !seen.contains(id));
            if missing.is_empty() {
                break;
            }
            batch = chan.server_await(round, &missing);
            if batch.is_empty() {
                break;
            }
        }
        // Close: whatever waited behind a gap folds now, ascending.
        while let Some((_, env)) = window.pop_first() {
            fold(env);
        }
        report_losses(chan, frames);
    }
}

/// Drives [`Collector::fold`] over `chan` with a fresh collector. Public
/// so the exhaustive interleaving harness (`tests/interleaving.rs`) can
/// push the private collector through every arrival permutation; the round
/// loop itself keeps using its long-lived collector directly.
pub fn drive_phase_fold(
    chan: &mut dyn Channel,
    round: u64,
    candidates: &[u32],
    want: impl Fn(&Envelope) -> bool,
    fold: impl FnMut(Envelope),
) {
    Collector::default().fold(chan, &mut NullObserver, round, candidates, want, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_federated::engine::DriverState;
    use fedomd_federated::CommsLog;
    use fedomd_federated::ResumeState;
    use fedomd_federated::{FedOmdConfig, Strategy, TrainConfig};
    use fedomd_telemetry::{MemoryObserver, NullObserver};
    use fedomd_transport::{InProcChannel, Tensor};
    use std::collections::VecDeque;

    fn spec(parties: usize, train: TrainConfig, omd: FedOmdConfig) -> RunSpec {
        RunSpec {
            strategy: Strategy::FedOmd(omd),
            parties,
            dataset: None,
            train,
        }
    }

    fn weight_env(round: u64, sender: u32, v: f32) -> Envelope {
        Envelope {
            round,
            sender,
            payload: Payload::WeightUpdate {
                params: vec![Tensor {
                    rows: 1,
                    cols: 2,
                    data: vec![v, v + 1.0],
                }],
            },
        }
    }

    fn metrics_env(round: u64, sender: u32, loss: f32, vc: u64, vt: u64) -> Envelope {
        Envelope {
            round,
            sender,
            payload: Payload::Metrics {
                train_loss: loss,
                val_correct: vc,
                val_total: vt,
                test_correct: vc,
                test_total: vt,
            },
        }
    }

    /// A server-side transport mock for the collector's contract: one
    /// pre-loaded frame per `server_await`, in raw arrival order — the
    /// finest-grained interleaving a transport can produce — and liveness
    /// answered per sender. A real transport would block when the queue is
    /// empty and a named sender is live; the mock counts that as a stall
    /// (the wait would have run into the phase deadline) and returns.
    struct Scripted {
        frames: VecDeque<Envelope>,
        live: BTreeSet<u32>,
        awaits: usize,
        stalls: usize,
    }

    impl Scripted {
        fn new(frames: Vec<Envelope>, live: &[u32]) -> Self {
            Self {
                frames: frames.into(),
                live: live.iter().copied().collect(),
                awaits: 0,
                stalls: 0,
            }
        }
    }

    impl Channel for Scripted {
        fn upload(&mut self, env: Envelope) {
            self.frames.push_back(env);
        }
        fn server_collect(&mut self, _round: u64) -> Vec<Envelope> {
            self.frames.drain(..).collect()
        }
        fn server_await(&mut self, _round: u64, missing: &[u32]) -> Vec<Envelope> {
            self.awaits += 1;
            assert!(!missing.is_empty(), "awaited with nobody missing");
            if let Some(env) = self.frames.pop_front() {
                return vec![env];
            }
            if missing.iter().any(|id| self.live.contains(id)) {
                self.stalls += 1;
            }
            Vec::new()
        }
        fn download(&mut self, _to: u32, _env: Envelope) {}
        fn client_collect(&mut self, _id: u32, _round: u64) -> Vec<Envelope> {
            Vec::new()
        }
    }

    fn is_weight(e: &Envelope) -> bool {
        matches!(e.payload, Payload::WeightUpdate { .. })
    }

    fn is_metrics(e: &Envelope) -> bool {
        matches!(e.payload, Payload::Metrics { .. })
    }

    /// Runs one collector phase over `chan`, returning the fold order.
    fn fold_phase(
        c: &mut Collector,
        chan: &mut dyn Channel,
        candidates: &[u32],
        want: impl Fn(&Envelope) -> bool,
    ) -> Vec<u32> {
        let mut order = Vec::new();
        c.fold(chan, &mut NullObserver, 0, candidates, want, |env| {
            order.push(env.sender)
        });
        order
    }

    #[test]
    fn collector_splits_interleaved_phases_per_sender() {
        let mut chan = InProcChannel::new();
        // Sender 1 races ahead: its weight update and metrics land before
        // sender 0's weight update.
        chan.upload(weight_env(0, 1, 1.0));
        chan.upload(metrics_env(0, 1, 0.5, 3, 4));
        chan.upload(weight_env(0, 0, 0.0));
        let mut c = Collector::default();
        let weights = fold_phase(&mut c, &mut chan, &[0, 1], is_weight);
        assert_eq!(weights, [0, 1], "must fold sender-ascending");
        // The metrics frame was stashed, not lost: the next phase gets it
        // without touching the (now empty) channel.
        let metrics = fold_phase(&mut c, &mut chan, &[1], is_metrics);
        assert_eq!(metrics, [1]);
        assert!(c.stash.is_empty());
    }

    #[test]
    fn out_of_order_arrivals_fold_ascending() {
        // Arrival order 2, 0, 1: the window must hold 2 until 0 and 1 fold.
        let frames = vec![
            weight_env(0, 2, 2.0),
            weight_env(0, 0, 0.0),
            weight_env(0, 1, 1.0),
        ];
        let mut chan = Scripted::new(frames, &[0, 1, 2]);
        let order = fold_phase(&mut Collector::default(), &mut chan, &[0, 1, 2], is_weight);
        assert_eq!(order, [0, 1, 2], "fold order must be ascending");
        assert_eq!(chan.awaits, 3, "closes on the last sender, no extra wait");
        assert_eq!(chan.stalls, 0);
    }

    #[test]
    fn phase_closes_once_every_missing_sender_has_departed() {
        // Two of three parties departed; the third's upload is in. The
        // phase must close without a blocking wait — and the survivor,
        // stuck in the window behind the gap the departed senders left,
        // must still fold.
        let mut chan = Scripted::new(vec![weight_env(0, 2, 2.0)], &[2]);
        let order = fold_phase(&mut Collector::default(), &mut chan, &[0, 1, 2], is_weight);
        assert_eq!(order, [2], "the survivor's update must not be stranded");
        assert_eq!(chan.stalls, 0, "nobody live was missing");
    }

    #[test]
    fn a_departed_sender_that_reported_does_not_close_the_phase_early() {
        // Sender 0 reported and then left; sender 1 is live and late. A
        // head count (one live peer, one frame seen) would close here and
        // lose sender 1's update; the set rule keeps waiting for it.
        let mut chan = Scripted::new(vec![weight_env(0, 0, 0.0)], &[1]);
        let order = fold_phase(&mut Collector::default(), &mut chan, &[0, 1], is_weight);
        assert_eq!(order, [0]);
        assert_eq!(chan.stalls, 1, "the live straggler must be waited for");
    }

    #[test]
    fn duplicate_frames_are_dropped_on_admission_not_stashed() {
        let k = 5;
        let mut frames = vec![weight_env(0, 0, 0.0)];
        frames.extend((0..k).map(|i| weight_env(0, 0, 10.0 + i as f32)));
        frames.push(weight_env(0, 1, 1.0));
        let mut chan = Scripted::new(frames, &[0, 1]);
        let mut c = Collector::default();
        let order = fold_phase(&mut c, &mut chan, &[0, 1], is_weight);
        assert_eq!(order, [0, 1], "one fold per sender, first frame wins");
        assert!(
            c.stash.is_empty(),
            "{} duplicates piled up in the stash",
            c.stash.len()
        );
    }

    /// Runs one round in which sender 1 uploads `bad` between two good
    /// updates: the round must drop it and average the two good updates,
    /// not panic the round thread or fold it.
    fn a_bad_update_is_dropped(bad: Tensor) {
        let mut chan = InProcChannel::new();
        chan.upload(weight_env(0, 0, 0.0));
        chan.upload(Envelope {
            round: 0,
            sender: 1,
            payload: Payload::WeightUpdate { params: vec![bad] },
        });
        chan.upload(weight_env(0, 2, 2.0));
        for id in 0..3 {
            chan.upload(metrics_env(0, id, 1.0, 1, 4));
        }
        let cfg = TrainConfig {
            rounds: 1,
            ..TrainConfig::mini(0)
        };
        let mut mem = MemoryObserver::new();
        let r = run_fedomd_server(
            &spec(3, cfg, FedOmdConfig::ortho_only()),
            None,
            &mut chan,
            &mut mem,
            Persistence::default(),
        );
        assert_eq!(r.comms.rounds, 1);
        assert!(mem
            .events
            .contains(&RoundEvent::AggregationDone { participants: 2 }));
        let down = chan.client_collect(0, 0);
        match &down[0].payload {
            Payload::GlobalModel { params } => assert_eq!(params[0].data, vec![1.0, 2.0]),
            other => panic!("unexpected {}", other.kind()),
        }
    }

    #[test]
    fn a_mis_shaped_update_degrades_like_a_dropped_frame() {
        // Decodes fine, but 2×1 where the first-folded update fixed 1×2.
        a_bad_update_is_dropped(Tensor {
            rows: 2,
            cols: 1,
            data: vec![100.0, 100.0],
        });
    }

    #[test]
    fn a_non_finite_update_degrades_like_a_dropped_frame() {
        // The right shape, but a NaN would poison the average.
        a_bad_update_is_dropped(Tensor {
            rows: 1,
            cols: 2,
            data: vec![f32::NAN, 1.0],
        });
    }

    /// The phases of the `PhaseDone` segments in `events`.
    fn phases(events: &[RoundEvent]) -> Vec<Phase> {
        events
            .iter()
            .filter_map(|e| match e {
                RoundEvent::PhaseDone { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect()
    }

    /// Position of the first event equal to `ev`.
    fn position(events: &[RoundEvent], ev: &RoundEvent) -> usize {
        events.iter().position(|e| e == ev).expect("event present")
    }

    #[test]
    fn aggregates_arrivals_and_records_pooled_eval() {
        // Two clients' round-0 uplink is already queued; a single-round
        // server run must aggregate it, broadcast the average, and push a
        // history entry with the pooled accuracy.
        let mut chan = InProcChannel::new();
        chan.upload(weight_env(0, 0, 0.0));
        chan.upload(weight_env(0, 1, 2.0));
        chan.upload(metrics_env(0, 0, 1.0, 1, 4));
        chan.upload(metrics_env(0, 1, 3.0, 2, 4));
        let cfg = TrainConfig {
            rounds: 1,
            ..TrainConfig::mini(0)
        };
        let omd = FedOmdConfig::ortho_only(); // no stats exchange
        let mut mem = MemoryObserver::new();
        let r = run_fedomd_server(
            &spec(2, cfg, omd),
            None,
            &mut chan,
            &mut mem,
            Persistence::default(),
        );
        // After aggregation the round's time is the model broadcast and
        // then the wait for the clients' metrics: both are timed.
        let agg = position(
            &mem.events,
            &RoundEvent::AggregationDone { participants: 2 },
        );
        assert_eq!(phases(&mem.events[agg..]), [Phase::Comms, Phase::Comms]);
        assert_eq!(r.history.len(), 1);
        assert_eq!(r.history[0].train_loss, 2.0);
        assert_eq!(r.history[0].val_acc, 3.0 / 8.0);
        assert_eq!(r.val_acc, 3.0 / 8.0);
        // Both clients got the FedAvg of the two updates.
        for id in 0..2u32 {
            let down = chan.client_collect(id, 0);
            assert_eq!(down.len(), 1, "client {id} downlink");
            match &down[0].payload {
                Payload::GlobalModel { params } => {
                    assert_eq!(params[0].data, vec![1.0, 2.0]);
                }
                other => panic!("unexpected {}", other.kind()),
            }
        }
    }

    #[test]
    fn the_verdict_broadcast_is_timed() {
        let mut chan = InProcChannel::new();
        chan.upload(weight_env(0, 0, 1.0));
        chan.upload(metrics_env(0, 0, 1.0, 1, 2));
        let cfg = TrainConfig {
            rounds: 2,
            ..TrainConfig::mini(0)
        };
        let mut mem = MemoryObserver::new();
        run_fedomd_server(
            &spec(1, cfg, FedOmdConfig::ortho_only()),
            None,
            &mut chan,
            &mut mem,
            Persistence::default(),
        );
        // Round 0 is not the last, so its verdict goes out after the
        // round's bookkeeping, before round 1 starts.
        let from = position(
            &mem.events,
            &RoundEvent::EvalDone {
                round: 0,
                val_acc: 0.5,
                test_acc: 0.5,
            },
        );
        let to = position(&mem.events, &RoundEvent::RoundStarted { round: 1 });
        assert_eq!(phases(&mem.events[from..to]), [Phase::Comms]);
    }

    #[test]
    fn empty_round_degrades_without_history() {
        // Nobody reported: no aggregation, no eval, no history entry —
        // the run ends with the driver's neutral result.
        let mut chan = InProcChannel::new();
        let cfg = TrainConfig {
            rounds: 1,
            ..TrainConfig::mini(0)
        };
        let r = run_fedomd_server(
            &spec(3, cfg, FedOmdConfig::paper()),
            None,
            &mut chan,
            &mut NullObserver,
            Persistence::default(),
        );
        assert!(r.history.is_empty());
        assert_eq!(r.comms.rounds, 1);
    }

    #[test]
    fn halt_after_returns_before_the_verdict() {
        let mut chan = InProcChannel::new();
        chan.upload(weight_env(0, 0, 1.0));
        chan.upload(metrics_env(0, 0, 1.0, 1, 2));
        let cfg = TrainConfig {
            rounds: 5,
            ..TrainConfig::mini(0)
        };
        let omd = FedOmdConfig::ortho_only();
        let r = run_fedomd_server(
            &spec(1, cfg, omd),
            Some(0),
            &mut chan,
            &mut NullObserver,
            Persistence::default(),
        );
        assert_eq!(r.comms.rounds, 1, "exactly one round ran");
        // Downlink holds the global model but no Control verdict: the
        // simulated crash struck before the broadcast.
        let kinds: Vec<&str> = chan
            .client_collect(0, 0)
            .iter()
            .map(|e| e.payload.kind())
            .collect();
        assert_eq!(kinds, ["GlobalModel"]);
    }

    #[test]
    fn resumes_from_a_server_side_snapshot() {
        // A server checkpoint has no per-client state; the driver history
        // and round cursor must carry over.
        let mut chan = InProcChannel::new();
        chan.upload(weight_env(3, 0, 1.0));
        chan.upload(metrics_env(3, 0, 0.25, 1, 2));
        let cfg = TrainConfig {
            rounds: 4,
            ..TrainConfig::mini(0)
        };
        let omd = FedOmdConfig::ortho_only();
        let prior = DriverState {
            history: vec![fedomd_federated::RoundStats {
                round: 2,
                train_loss: 0.5,
                val_acc: 0.5,
                test_acc: 0.5,
            }],
            best_val: 0.5,
            best_test: 0.5,
            best_round: 2,
            rounds_since_improve: 0,
            stopped: false,
            comms: CommsLog::new(),
        };
        let resume = ResumeState {
            next_round: 3,
            params: Vec::new(),
            optim: Vec::new(),
            model_steps: Vec::new(),
            driver: prior,
            global: None,
            stats: None,
        };
        let r = run_fedomd_server(
            &spec(1, cfg, omd),
            None,
            &mut chan,
            &mut NullObserver,
            Persistence {
                resume: Some(resume),
                sink: None,
            },
        );
        // Round 3 is off the eval schedule (eval_every = 2), so history
        // still holds only the checkpointed entry.
        assert_eq!(r.history.len(), 1);
        assert_eq!(r.val_acc, 0.5);
        assert_eq!(r.comms.rounds, 1, "only round 3 ran after resume");
    }
}
