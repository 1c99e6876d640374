//! The in-process FedOMD run (Algorithm 1): one [`ClientSession`] per
//! client and one [`ServerRound`], driven in lockstep over a [`Channel`].
//!
//! Per communication round the driver samples the cohort
//! ([`fedomd_federated::CohortConfig`]), sweeps the cohort's sessions
//! through the forward pass, carries both statistics rounds and the weight
//! upload as encoded frames between the sessions and the server, sweeps the
//! cohort through its local step, and broadcasts the FedAvg model to *every*
//! client — spectators included — so pooled evaluation always sees a
//! synchronised federation. The protocol steps themselves are the session
//! and server methods (`crate::session`); this loop only moves frames and
//! accounts their bytes.
//!
//! Each upload is collected and folded before the next is sent, so the
//! uplink queue never holds more than one payload and server aggregation
//! memory stays O(model) at any cohort size. With the default in-process
//! channel the run is deterministic per seed; a simulated lossy channel
//! degrades gracefully: a round aggregates whoever arrived, and a client
//! that misses the global statistics trains without the CMD term that
//! round.
//!
//! Every milestone is reported to a [`RoundObserver`]. Observers are pure
//! sinks, so any observer yields the exact same `RunResult` as
//! [`fedomd_telemetry::NullObserver`] (golden-tested). The
//! [`crate::FedRun`] builder is the entry point.

use rayon::prelude::*;

use fedomd_federated::{ClientData, CommsLog, Direction, Persistence, RunResult, TrainConfig};
use fedomd_telemetry::{ObservedChannel, Phase, PhaseStopwatch, RoundEvent, RoundObserver};
use fedomd_transport::{Channel, Envelope, Payload, SERVER_SENDER};

use crate::config::FedOmdConfig;
use crate::protocol::GlobalStats;
use crate::server::{open_run, save_if_due, traffic_class};
use crate::session::{ClientSession, EvalCounts, ServerRound, StepLosses};

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

/// [`run_fedomd_observed`] with checkpoint/resume wiring: restores
/// `persist.resume` (per-client parameters, Adam moments, driver
/// bookkeeping, channel fault-stream cursor) before the loop, enters at
/// the restored round, and hands `persist.sink` a
/// [`fedomd_federated::ResumeState`] snapshot every `sink.every()` rounds —
/// including the last aggregated global model and global statistics, so a
/// served checkpoint carries the full round outcome. A resumed run is
/// bit-identical to the same run left uninterrupted: every RNG stream —
/// including the cohort sampler — is derived from `(seed, round)` or a
/// checkpointed cursor, and snapshots land on round boundaries where the
/// channel has no frames in flight.
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
    let m = clients.len();
    let f = clients[0].input.n_features();
    let mut sessions: Vec<ClientSession> = clients
        .iter()
        .map(|_| ClientSession::new(cfg, omd, f, n_classes))
        .collect();
    if let Some(resume) = persist.resume.as_mut() {
        assert_eq!(
            resume.params.len(),
            m,
            "resume: checkpoint has {} clients, federation has {m}",
            resume.params.len()
        );
        let optim = std::mem::take(&mut resume.optim);
        for (((s, p), &steps), st) in sessions
            .iter_mut()
            .zip(&resume.params)
            .zip(&resume.model_steps)
            .zip(optim)
        {
            s.restore(p, steps, st);
        }
    }
    let (mut driver, mut server, start_round) = open_run(cfg, m, &mut persist, chan, obs);
    let mut chan = ObservedChannel::new(chan);

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
        let mut in_cohort = vec![false; m];
        for &i in &cohort {
            in_cohort[i] = true;
        }

        // --- Forward passes (cohort, parallel) ---
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        sessions
            .par_iter_mut()
            .zip(clients.par_iter())
            .zip(in_cohort.par_iter())
            .for_each(|((s, client), &active)| {
                if active {
                    s.forward(client);
                }
            });
        sw.finish(obs);

        // --- The 2-round statistics exchange, to and from the cohort ---
        let mut stats: Vec<Option<GlobalStats>> = vec![None; m];
        if omd.use_cmd {
            let sw = PhaseStopwatch::start(Phase::Comms);
            for &i in &cohort {
                if let Some(means) = sessions[i].means() {
                    up(&mut chan, &mut driver.comms, &mut server, r, i, means);
                }
            }
            chan.flush_into(obs);
            let (done, down) = server.close_means();
            obs.on_event(&done);
            let mut global_means: Vec<Option<Vec<Vec<f32>>>> = vec![None; m];
            if let Some(payload) = down {
                for &i in &cohort {
                    for got in send(&mut chan, &mut driver.comms, r, i, payload.clone()) {
                        if let Payload::GlobalStats { means, .. } = got {
                            global_means[i] = Some(means);
                        }
                    }
                }
            }
            chan.flush_into(obs);
            // A client that never received the means sits round 2 out.
            for &i in &cohort {
                let global = global_means[i].as_ref();
                if let Some(moments) = global.and_then(|g| sessions[i].moments(g)) {
                    up(&mut chan, &mut driver.comms, &mut server, r, i, moments);
                }
            }
            chan.flush_into(obs);
            let (done, down) = server.close_moments();
            obs.on_event(&done);
            if let Some(payload) = down {
                for &i in &cohort {
                    for got in send(&mut chan, &mut driver.comms, r, i, payload.clone()) {
                        if let Payload::GlobalStats { means, moments } = got {
                            stats[i] = Some(GlobalStats { means, moments });
                        }
                    }
                }
            }
            chan.flush_into(obs);
            sw.finish(obs);
        }

        // --- Local steps (cohort, parallel) ---
        let sw = PhaseStopwatch::start(Phase::LocalTrain);
        let losses: Vec<Option<StepLosses>> = sessions
            .par_iter_mut()
            .zip(clients.par_iter())
            .zip(stats.par_iter())
            .map(|((s, client), stats)| s.step(client, stats.as_ref()))
            .collect();
        for (i, l) in losses.iter().enumerate() {
            if let Some(l) = l {
                obs.on_event(&l.event(i as u32));
            }
        }
        sw.finish(obs);

        // --- FedAvg over the channel (partial under faults) ---
        let sw = PhaseStopwatch::start(Phase::Comms);
        for &i in &cohort {
            let weights = sessions[i].weights();
            up(&mut chan, &mut driver.comms, &mut server, r, i, weights);
        }
        // Straggler drain: both in-process channels resolve every pending
        // frame at the first collect after its upload, but a buffering
        // channel impl may surface late arrivals here.
        for env in chan.server_collect(r) {
            let _admitted = server.admit(env).is_ok();
        }
        chan.flush_into(obs);
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
                for got in send(&mut chan, &mut driver.comms, r, i, payload.clone()) {
                    if let Payload::GlobalModel { params } = got {
                        // A refused model degrades like a lost downlink
                        // frame: the client keeps its weights.
                        let _installed = s.install(params).is_ok();
                    }
                }
            }
            chan.flush_into(obs);
            sw.finish(obs);
        }
        driver.comms.sync_dropped(chan.stats().dropped_frames);

        let active: Vec<f64> = losses.iter().flatten().map(|l| l.total as f64).collect();
        let mean_loss = if active.is_empty() {
            f64::NAN
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        };
        let eval = if driver.eval_due(round) {
            let sw = PhaseStopwatch::start(Phase::Eval);
            let mut counts = EvalCounts::default();
            for (s, client) in sessions.iter().zip(clients) {
                counts += s.eval_counts(client);
            }
            sw.finish(obs);
            Some(counts.accuracy())
        } else {
            None
        };
        driver.end_round_metrics(round, mean_loss, eval, obs);
        save_if_due(&mut persist, round, obs, || {
            server.checkpoint(round + 1, driver.snapshot(), chan.export_state(), &sessions)
        });
        if driver.stopped() {
            break;
        }
    }
    driver.finish_observed("FedOMD", obs)
}

/// Client `sender` uploads `payload`; the server collects and admits.
fn up(
    chan: &mut ObservedChannel<'_>,
    comms: &mut CommsLog,
    server: &mut ServerRound,
    round: u64,
    sender: usize,
    payload: Payload,
) {
    let class = traffic_class(&payload);
    let env = Envelope {
        round,
        sender: sender as u32,
        payload,
    };
    comms.record(Direction::Uplink, class, chan.upload(env) as u64);
    for env in chan.server_collect(round) {
        let _admitted = server.admit(env).is_ok();
    }
}

/// The server sends `payload` to client `to`; returns what it collects.
fn send(
    chan: &mut ObservedChannel<'_>,
    comms: &mut CommsLog,
    round: u64,
    to: usize,
    payload: Payload,
) -> impl Iterator<Item = Payload> {
    let class = traffic_class(&payload);
    let env = Envelope {
        round,
        sender: SERVER_SENDER,
        payload,
    };
    let bytes = chan.download(to as u32, env);
    comms.record(Direction::Downlink, class, bytes as u64);
    chan.client_collect(to as u32, round)
        .into_iter()
        .map(|env| env.payload)
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
