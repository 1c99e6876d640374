//! The client half of a multi-process FedOMD deployment.
//!
//! [`run_fedomd_client_rounds`] is one party's side of Algorithm 1, driven
//! over a [`Channel`]: each round it reads the frame a protocol step needs,
//! calls the [`ClientSession`] method for that step — the same methods the
//! in-process loop sweeps — and writes the frame it returns, ending with
//! the round's loss and eval counts as a `Metrics` frame. Over a faithful
//! transport a multi-process run therefore reproduces the in-process
//! numbers exactly.
//!
//! The loop is *resumable by construction*: it takes an explicit
//! `start_round` and a caller-owned [`ClientSession`], so the `fedomd-net`
//! reconnect logic can re-enter it after a server loss, optionally after
//! installing a fresher global model into the session.

use fedomd_federated::engine::{report_losses, upload};
use fedomd_federated::helpers::UpdateShapeError;
use fedomd_federated::protocol::GlobalStats;
use fedomd_federated::{ClientData, ClientSession, EvalCounts, FedOmdConfig, TrainConfig};
use fedomd_telemetry::{Phase, PhaseStopwatch, RoundEvent, RoundObserver};
use fedomd_transport::{Channel, Control, Envelope, Payload};

/// Why [`run_fedomd_client_rounds`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientOutcome {
    /// The configured round budget completed.
    Finished,
    /// The server's verdict said the run early-stopped.
    Stopped,
    /// No verdict arrived within the channel's deadline: the server is
    /// gone (crashed, or this client was cut off). `round` is the next
    /// round this client would have entered; the authoritative resume
    /// point comes from the server's handshake after reconnecting.
    ServerLost {
        /// First round not entered locally.
        round: usize,
    },
}

/// Runs one client's rounds `start_round..cfg.rounds` over `chan`.
///
/// Fault semantics mirror the in-process loop under a lossy channel: a
/// missing global-statistics frame means training without the CMD term
/// this round, a missing global model means keeping the local weights —
/// each phase simply times out at the channel's deadline. Only a missing
/// *verdict* ends the loop (with [`ClientOutcome::ServerLost`]), because
/// without it the client cannot know whether the run early-stopped. A
/// global model whose shapes do not fit this client's model is an error:
/// the server is serving another configuration.
///
/// Every upload is reported to `obs` as `FrameSent`, and every frame the
/// channel discarded (a late downlink, an upload the connection refused)
/// as `FrameDropped`.
#[allow(clippy::too_many_arguments)]
pub fn run_fedomd_client_rounds(
    id: u32,
    client: &ClientData,
    cfg: &TrainConfig,
    omd: &FedOmdConfig,
    session: &mut ClientSession,
    start_round: usize,
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
) -> Result<ClientOutcome, UpdateShapeError> {
    let mut stash: Vec<Envelope> = Vec::new();

    for round in start_round..cfg.rounds {
        obs.on_event(&RoundEvent::RoundStarted {
            round: round as u64,
        });
        let r = round as u64;
        let up = |payload| Envelope {
            round: r,
            sender: id,
            payload,
        };

        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        session.forward(client);
        sw.finish(obs);

        // --- The 2-round statistics exchange ---
        let mut stats: Option<GlobalStats> = None;
        if omd.use_cmd {
            let sw = PhaseStopwatch::start(Phase::Comms);
            if let Some(means) = session.means() {
                upload(chan, obs, up(means));
            }
            // First GlobalStats down: the means. A slow client may find the
            // full statistics already queued behind them — both shapes are
            // accepted here, keyed on whether the moment list is empty.
            let mut global_means: Option<Vec<Vec<f32>>> = None;
            if let Some(Payload::GlobalStats { means, moments }) =
                collect_matching(chan, obs, id, r, &mut stash, |p| {
                    matches!(p, Payload::GlobalStats { .. })
                })
            {
                if moments.is_empty() {
                    global_means = Some(means);
                } else {
                    stats = Some(GlobalStats { means, moments });
                }
            }
            if let Some(moments) = global_means.as_ref().and_then(|g| session.moments(g)) {
                upload(chan, obs, up(moments));
                if let Some(Payload::GlobalStats { means, moments }) = collect_matching(
                    chan,
                    obs,
                    id,
                    r,
                    &mut stash,
                    |p| matches!(p, Payload::GlobalStats { moments, .. } if !moments.is_empty()),
                ) {
                    stats = Some(GlobalStats { means, moments });
                }
            }
            sw.finish(obs);
        }

        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let passes = session.step(client, stats.as_ref()).unwrap_or_default();
        for (epoch, l) in passes.iter().enumerate() {
            obs.on_event(&l.event(id, epoch as u32));
        }
        sw.finish(obs);

        // --- Weights up, aggregated global model down ---
        let sw = PhaseStopwatch::start(Phase::Comms);
        upload(chan, obs, up(session.weights()));
        if let Some(Payload::GlobalModel { params }) =
            collect_matching(chan, obs, id, r, &mut stash, |p| {
                matches!(p, Payload::GlobalModel { .. })
            })
        {
            session.install(params)?;
        }
        sw.finish(obs);

        // --- Round outcome: local eval on the post-aggregation model, the
        // counts shipped for the server's pooled accuracy. ---
        let counts = if round.is_multiple_of(cfg.eval_every) {
            let sw = PhaseStopwatch::start(Phase::Eval);
            let counts = session.eval_counts(client);
            sw.finish(obs);
            counts
        } else {
            EvalCounts::default()
        };
        upload(
            chan,
            obs,
            up(Payload::Metrics {
                train_loss: passes.last().map_or(f32::NAN, |l| l.total),
                val_correct: counts.val.0,
                val_total: counts.val.1,
                test_correct: counts.test.0,
                test_total: counts.test.1,
            }),
        );

        // --- Verdict: continue, stop, or conclude the server is gone. On
        // its last scheduled round the client leaves without waiting. ---
        if round + 1 >= cfg.rounds {
            continue;
        }
        let verdict = collect_matching(chan, obs, id, r, &mut stash, |p| {
            matches!(p, Payload::Control(_))
        });
        let Some(verdict) = verdict else {
            return Ok(ClientOutcome::ServerLost { round: round + 1 });
        };
        if verdict == Payload::Control(Control::EndRound) {
            return Ok(ClientOutcome::Stopped);
        }
    }
    Ok(ClientOutcome::Finished)
}

/// Takes the payload of the first round-`round` frame matching `want` —
/// from the stash first, then from the channel until it reports nothing
/// new (deadline). Non-matching current-or-future frames are stashed for
/// later phases; frames of closed rounds are discarded. Frames the
/// channel discarded are reported to `obs` after each collect.
fn collect_matching(
    chan: &mut dyn Channel,
    obs: &mut dyn RoundObserver,
    id: u32,
    round: u64,
    stash: &mut Vec<Envelope>,
    want: impl Fn(&Payload) -> bool,
) -> Option<Payload> {
    if let Some(pos) = stash
        .iter()
        .position(|e| e.round == round && want(&e.payload))
    {
        return Some(stash.remove(pos).payload);
    }
    stash.retain(|e| e.round >= round);
    loop {
        let batch = chan.client_collect(id, round);
        report_losses(chan, obs);
        if batch.is_empty() {
            return None;
        }
        let mut found = None;
        for env in batch {
            if found.is_none() && env.round == round && want(&env.payload) {
                found = Some(env.payload);
            } else if env.round >= round {
                stash.push(env);
            }
        }
        if found.is_some() {
            return found;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_federated::helpers::{count_correct, predict};
    use fedomd_federated::{client_shard, FederationConfig};
    use fedomd_telemetry::NullObserver;
    use fedomd_tensor::Matrix;
    use fedomd_transport::{to_tensors, InProcChannel, SERVER_SENDER};

    fn one_shard() -> (ClientData, usize) {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let shard = client_shard(&ds, &FederationConfig::mini(2, 0), 0).expect("shard 0");
        (shard, ds.n_classes)
    }

    fn quick_cfg(rounds: usize) -> TrainConfig {
        TrainConfig {
            rounds,
            patience: 100,
            ..TrainConfig::mini(0)
        }
    }

    #[test]
    fn lone_client_degrades_and_reports_server_lost() {
        // No server behind the channel: every downlink phase times out,
        // the client still takes its local step, and the missing verdict
        // after round 0 ends the loop.
        let (shard, k) = one_shard();
        let cfg = quick_cfg(3);
        let omd = FedOmdConfig::paper();
        let mut session = ClientSession::new(&cfg, &omd, &shard, k);
        let before = session.model().params();
        let mut chan = InProcChannel::new();
        let out = run_fedomd_client_rounds(
            0,
            &shard,
            &cfg,
            &omd,
            &mut session,
            0,
            &mut chan,
            &mut NullObserver,
        );
        assert_eq!(out, Ok(ClientOutcome::ServerLost { round: 1 }));
        let after = session.model().params();
        assert!(
            before
                .iter()
                .zip(&after)
                .any(|(a, b)| a.as_slice() != b.as_slice()),
            "the local Adam step must have moved the weights"
        );
        // The round's uplink made it out: stats round 1, weights, metrics
        // (stats round 2 needs the global means, which never came).
        let kinds: Vec<&str> = chan
            .server_collect(0)
            .iter()
            .map(|e| e.payload.kind())
            .collect();
        assert_eq!(kinds, ["StatsRound1", "WeightUpdate", "Metrics"]);
    }

    #[test]
    fn installs_the_global_model_and_ships_eval_counts() {
        let (shard, k) = one_shard();
        let cfg = quick_cfg(1);
        let omd = FedOmdConfig::ortho_only(); // no CMD: no stats exchange
        let mut session = ClientSession::new(&cfg, &omd, &shard, k);
        // A "global model" the server would broadcast: recognisably not
        // what the local step produces.
        let global: Vec<Matrix> = session
            .model()
            .params()
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let mut chan = InProcChannel::new();
        chan.download(
            0,
            Envelope {
                round: 0,
                sender: SERVER_SENDER,
                payload: Payload::GlobalModel {
                    params: to_tensors(&global),
                },
            },
        );
        let out = run_fedomd_client_rounds(
            0,
            &shard,
            &cfg,
            &omd,
            &mut session,
            0,
            &mut chan,
            &mut NullObserver,
        );
        // Single-round budget: the client finishes without a verdict.
        assert_eq!(out, Ok(ClientOutcome::Finished));
        for (p, g) in session.model().params().iter().zip(&global) {
            assert_eq!(p.as_slice(), g.as_slice(), "global model not installed");
        }
        // Round 0 is on the eval schedule: the metrics frame must carry the
        // zero-model's actual pooled counts over this shard.
        let logits = predict(session.model(), &shard);
        let (vc, vt) = count_correct(&logits, &shard.labels, &shard.splits.val);
        let (tc, tt) = count_correct(&logits, &shard.labels, &shard.splits.test);
        let uplink = chan.server_collect(0);
        let metrics = uplink
            .iter()
            .find(|e| matches!(e.payload, Payload::Metrics { .. }))
            .expect("metrics frame");
        match &metrics.payload {
            Payload::Metrics {
                train_loss,
                val_correct,
                val_total,
                test_correct,
                test_total,
            } => {
                assert!(train_loss.is_finite() && *train_loss > 0.0);
                assert_eq!(
                    (*val_correct, *val_total, *test_correct, *test_total),
                    (vc as u64, vt as u64, tc as u64, tt as u64)
                );
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }

    #[test]
    fn end_round_verdict_stops_the_loop_via_the_stash() {
        // The verdict is queued before the client even starts: it surfaces
        // during the (unmatched) global-model collect, parks in the stash,
        // and is consumed by the verdict phase.
        let (shard, k) = one_shard();
        let cfg = quick_cfg(5);
        let omd = FedOmdConfig::ortho_only();
        let mut session = ClientSession::new(&cfg, &omd, &shard, k);
        let mut chan = InProcChannel::new();
        chan.download(
            0,
            Envelope {
                round: 0,
                sender: SERVER_SENDER,
                payload: Payload::Control(Control::EndRound),
            },
        );
        let out = run_fedomd_client_rounds(
            0,
            &shard,
            &cfg,
            &omd,
            &mut session,
            0,
            &mut chan,
            &mut NullObserver,
        );
        assert_eq!(out, Ok(ClientOutcome::Stopped));
    }
}
