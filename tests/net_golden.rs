//! Golden guarantees of the real TCP deployment (DESIGN.md §14): a run
//! spread across OS-level sockets on 127.0.0.1 reproduces the in-process
//! run's accuracy and history exactly; a client that departs mid-run
//! degrades the federation to partial aggregation rather than wedging it;
//! and a server killed mid-run resumes from its checkpoint while the
//! clients reconnect on their own.
//!
//! The server and clients here are the same `serve_on` / `run_client`
//! entry points the `fedomd-server` / `fedomd-client` binaries wrap —
//! run from threads so one test process exercises real sockets without
//! spawning subprocesses (scripts/net_smoke.sh covers the multi-process
//! variant).

#![allow(
    clippy::disallowed_methods,
    reason = "joined threads; stalls fail on wall time"
)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedomd_core::{ClientOutcome, FedRun, RunCheckpoint, RunConfig};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{setup_federation, ClientData, FederationConfig};
use fedomd_net::{run_client, serve_on, ClientOpts, ClientReport, NetConfig, ServeOpts};
use fedomd_telemetry::{MemoryObserver, NullObserver, RoundEvent};
use fedomd_transport::Payload;

fn mini_setup(seed: u64) -> (String, Vec<ClientData>, usize) {
    let ds = generate(&spec(DatasetName::CoraMini), seed);
    let clients = setup_federation(&ds, &FederationConfig::mini(3, seed));
    (ds.name.clone(), clients, ds.n_classes)
}

/// Loopback-tuned knobs: quick reconnects, a bounded join window, and the
/// given per-phase deadline (generous where every frame must arrive,
/// short where a test wants the degraded path to trigger fast).
fn quick_net(phase: Duration) -> NetConfig {
    NetConfig {
        phase_timeout: phase,
        connect_attempts: 100,
        connect_backoff: Duration::from_millis(100),
        join_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedomd-net-golden-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One client process, as a thread. Panics (failing the test at join)
/// if the client errors out instead of producing a report.
#[allow(clippy::too_many_arguments)]
fn spawn_client(
    addr: String,
    id: u32,
    run: RunConfig,
    dataset: String,
    n_clients: usize,
    shard: ClientData,
    n_classes: usize,
    net: NetConfig,
) -> JoinHandle<ClientReport> {
    std::thread::spawn(move || {
        let opts = ClientOpts { addr, id, net };
        run_client(
            &opts,
            &run,
            &dataset,
            n_clients,
            &shard,
            n_classes,
            &mut NullObserver,
        )
        .unwrap_or_else(|e| panic!("client {id}: {e}"))
    })
}

/// The server's per-phase deadline in [`run_loopback`]. Generous on
/// purpose: no phase of a healthy run comes near it, and a phase closed
/// by the deadline costs at least this much wall time — which is what
/// lets the goldens below turn a stall into a failure of its own.
const PHASE_TIMEOUT: Duration = Duration::from_secs(20);

/// What one [`run_loopback`] federation produced.
struct Loopback {
    result: fedomd_federated::RunResult,
    reports: Vec<ClientReport>,
    wall: Duration,
}

/// One full loopback federation: a server plus one client thread per
/// shard, each running `client_runs[id]`. Panics unless every client
/// finishes cleanly.
fn run_loopback(
    server_run: &RunConfig,
    client_runs: &[RunConfig],
    name: &str,
    clients: &[ClientData],
    n_classes: usize,
) -> Loopback {
    let started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let net = quick_net(PHASE_TIMEOUT);
    let server = {
        let (run, name) = (server_run.clone(), name.to_string());
        let opts = ServeOpts {
            net,
            ..ServeOpts::new(clients.len())
        };
        std::thread::spawn(move || serve_on(listener, &opts, &run, &name, &mut NullObserver))
    };
    let workers: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(id, shard)| {
            spawn_client(
                addr.clone(),
                id as u32,
                client_runs[id].clone(),
                name.to_string(),
                clients.len(),
                shard.clone(),
                n_classes,
                net,
            )
        })
        .collect();
    let result = server
        .join()
        .expect("server thread")
        .expect("server run completes");
    let reports: Vec<ClientReport> = workers
        .into_iter()
        .enumerate()
        .map(|(id, worker)| {
            let report = worker.join().expect("client thread");
            assert_eq!(report.outcome, ClientOutcome::Finished, "client {id}");
            report
        })
        .collect();
    Loopback {
        result,
        reports,
        wall: started.elapsed(),
    }
}

/// Runs the same loopback federation twice and pins what a fold loop with
/// a correct close rule guarantees whatever the socket timing: the two
/// runs agree bit for bit, every scheduled round ran, and neither run
/// spent a phase deadline — any deadline-closed phase costs at least
/// [`PHASE_TIMEOUT`], so the wall-time bound makes a stall a failure in
/// its own right instead of a slow pass. Returns both runs.
fn replay_twice_without_a_stall(
    run: &RunConfig,
    client_runs: &[RunConfig],
    name: &str,
    clients: &[ClientData],
    n_classes: usize,
) -> [Loopback; 2] {
    let runs = [
        run_loopback(run, client_runs, name, clients, n_classes),
        run_loopback(run, client_runs, name, clients, n_classes),
    ];
    let [a, b] = &runs;
    assert_eq!(a.result.test_acc, b.result.test_acc, "test accuracy");
    assert_eq!(a.result.val_acc, b.result.val_acc, "val accuracy");
    assert_eq!(a.result.best_round, b.result.best_round, "best round");
    assert_eq!(a.result.history, b.result.history, "evaluation history");
    for lb in &runs {
        assert_eq!(
            lb.result.comms.rounds as usize, run.train.rounds,
            "every scheduled round must run"
        );
        assert!(
            lb.wall < PHASE_TIMEOUT,
            "a phase sat out its deadline: the run took {:?}",
            lb.wall
        );
    }
    runs
}

#[test]
fn the_cohort_sampled_tcp_run_replays_bit_for_bit_without_a_stall() {
    let (name, clients, n_classes) = mini_setup(5);
    // Cohort sampling exercises the sparse-candidate weight fold: only
    // the sampled senders are awaited, while every client still uploads —
    // so the unsampled sender's update lands late, among the metrics
    // frames (the stall this golden guards against).
    let run = RunConfig::mini(5)
        .with_rounds(8)
        .with_patience(40)
        .with_cohort(fedomd_federated::CohortConfig::fraction(0.67, 9));
    let same: Vec<RunConfig> = vec![run.clone(); clients.len()];

    let runs = replay_twice_without_a_stall(&run, &same, &name, &clients, n_classes);
    for lb in &runs {
        for (id, report) in lb.reports.iter().enumerate() {
            assert_eq!(report.reconnects, 0, "client {id} must never reconnect");
        }
    }
}

#[test]
fn a_departing_client_run_replays_bit_for_bit_without_a_stall() {
    let (name, clients, n_classes) = mini_setup(6);
    let run = RunConfig::mini(6).with_rounds(8).with_patience(40);
    // Client 2 leaves after 3 of the 8 rounds, so every later phase must
    // close on the two senders still live instead of burning the deadline
    // on a reorder-window slot that never fills. Which frames fold is
    // round-deterministic (client 2 contributes exactly rounds 0–2), so
    // even the degraded tail replays bit for bit.
    let mut client_runs: Vec<RunConfig> = vec![run.clone(); clients.len()];
    client_runs[2].train.rounds = 3;

    let [first, _] = replay_twice_without_a_stall(&run, &client_runs, &name, &clients, n_classes);
    assert!(first.result.improved(), "two live parties must still learn");
}

#[test]
fn loopback_tcp_run_matches_the_in_process_run() {
    let (name, clients, n_classes) = mini_setup(0);
    let run = RunConfig::mini(0).with_rounds(12).with_patience(40);

    // The in-process reference: same dataset, same shards, same config.
    let reference = FedRun::new(&clients, n_classes).config(run.clone()).run();
    assert!(reference.improved(), "reference run must actually learn");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    // Every frame must arrive for bit-identity, so the deadline is slack.
    let net = quick_net(Duration::from_secs(20));
    let server = {
        let (run, name) = (run.clone(), name.clone());
        let opts = ServeOpts {
            net,
            ..ServeOpts::new(clients.len())
        };
        std::thread::spawn(move || serve_on(listener, &opts, &run, &name, &mut NullObserver))
    };
    let workers: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(id, shard)| {
            spawn_client(
                addr.clone(),
                id as u32,
                run.clone(),
                name.clone(),
                clients.len(),
                shard.clone(),
                n_classes,
                net,
            )
        })
        .collect();

    let result = server
        .join()
        .expect("server thread")
        .expect("server run completes");
    for (id, worker) in workers.into_iter().enumerate() {
        let report = worker.join().expect("client thread");
        assert_eq!(report.outcome, ClientOutcome::Finished, "client {id}");
        assert_eq!(report.reconnects, 0, "client {id} must never reconnect");
    }

    // The paper numbers — accuracy at the best round and the whole
    // evaluation curve — are bit-identical across the socket boundary.
    // (Comms accounting legitimately differs: TCP ships Metrics/Control
    // frames the in-process loop replaces with shared memory.)
    assert_eq!(result.test_acc, reference.test_acc, "test accuracy");
    assert_eq!(result.val_acc, reference.val_acc, "val accuracy");
    assert_eq!(result.best_round, reference.best_round, "best round");
    assert_eq!(result.history, reference.history, "evaluation history");
}

#[test]
fn a_departing_client_degrades_to_partial_aggregation() {
    let (name, clients, n_classes) = mini_setup(1);
    let rounds = 8;
    let run = RunConfig::mini(1).with_rounds(rounds).with_patience(40);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    // Deliberately generous server deadline: a departed peer shrinks the
    // awaited cohort, so no phase should ever sit out this timeout — if
    // the live-peer accounting regresses, this test stalls for many
    // multiples of 20 s instead of finishing in seconds.
    let server_net = quick_net(Duration::from_secs(20));
    let client_net = quick_net(Duration::from_secs(20));
    let server = {
        let (run, name) = (run.clone(), name.clone());
        let opts = ServeOpts {
            net: server_net,
            ..ServeOpts::new(clients.len())
        };
        std::thread::spawn(move || {
            let mut trace = MemoryObserver::new();
            let result = serve_on(listener, &opts, &run, &name, &mut trace);
            (result, trace)
        })
    };
    // Client 2 is scheduled for only 3 of the 8 rounds; the handshake's
    // spec comparison deliberately ignores the round budget, so the server
    // admits it and then sees it leave. Every other spec key matches.
    let workers: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(id, shard)| {
            let mut mine = run.clone();
            if id == 2 {
                mine.train.rounds = 3;
            }
            spawn_client(
                addr.clone(),
                id as u32,
                mine,
                name.clone(),
                clients.len(),
                shard.clone(),
                n_classes,
                client_net,
            )
        })
        .collect();

    let (result, trace) = server.join().expect("server thread");
    let result = result.expect("server run completes");
    for (id, worker) in workers.into_iter().enumerate() {
        let report = worker.join().expect("client thread");
        assert_eq!(report.outcome, ClientOutcome::Finished, "client {id}");
        assert_eq!(report.reconnects, 0, "client {id}");
    }

    // The server drove every scheduled round: the departure degraded the
    // federation to the two live parties, it did not wedge the run.
    assert_eq!(result.comms.rounds as usize, rounds, "all rounds ran");
    assert_eq!(
        result.history.len(),
        4,
        "eval_every=2 over 8 rounds: evaluations at rounds 0, 2, 4, 6"
    );
    let last = result.history.last().expect("final evaluation");
    assert!(
        last.val_acc > 0.0 && last.val_acc <= 1.0,
        "partial-aggregation accuracy must stay a sane ratio, got {}",
        last.val_acc
    );
    assert!(
        result.improved(),
        "two live parties must still learn something"
    );

    // The server's trace is its ledger: per direction, the bytes of its
    // `frame_sent` events are the result's traffic, and every frame lost
    // to the departed client is one `frame_dropped`.
    let (mut up, mut down) = (0u64, 0u64);
    for e in &trace.events {
        if let RoundEvent::FrameSent { kind, bytes } = *e {
            if Payload::travels_up(kind) {
                up += bytes;
            } else {
                down += bytes;
            }
        }
    }
    assert_eq!(up, result.comms.uplink_bytes);
    assert_eq!(down, result.comms.downlink_bytes);
    assert!(up > 0 && down > 0);
    let dropped = trace.count("frame_dropped") as u64;
    assert_eq!(dropped, result.comms.dropped_messages);
    assert!(dropped > 0, "the departed client's frames must be dropped");
}

#[test]
fn a_killed_server_resumes_from_its_checkpoint_and_the_clients_reconnect() {
    let dir = scratch("kill-resume");
    let path = dir.join("net.ckpt");
    let (name, clients, n_classes) = mini_setup(2);
    let rounds = 10;
    let run = RunConfig::mini(2).with_rounds(rounds).with_patience(40);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    // The clone keeps the port bound across the "crash", exactly like an
    // OS-level restart script re-binding the same --addr: clients retry
    // the same address throughout.
    let relisten = listener.try_clone().expect("clone listener");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server_net = quick_net(Duration::from_secs(20));
    // Clients notice the missing verdict (the crash signature) after one
    // phase deadline, then reconnect with backoff.
    let client_net = quick_net(Duration::from_secs(2));

    // First server generation: checkpoint at round 4, then "crash" before
    // broadcasting the round-4 verdict.
    let first = {
        let (run, name) = (run.clone(), name.clone());
        let opts = ServeOpts {
            halt_after: Some(4),
            checkpoint: Some((path.clone(), 5)),
            net: server_net,
            ..ServeOpts::new(clients.len())
        };
        std::thread::spawn(move || serve_on(listener, &opts, &run, &name, &mut NullObserver))
    };
    let workers: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(id, shard)| {
            spawn_client(
                addr.clone(),
                id as u32,
                run.clone(),
                name.clone(),
                clients.len(),
                shard.clone(),
                n_classes,
                client_net,
            )
        })
        .collect();

    let partial = first
        .join()
        .expect("first server thread")
        .expect("halted run returns");
    assert_eq!(partial.comms.rounds, 5, "halted after round 4");
    let ckpt = RunCheckpoint::load(&path).expect("durable checkpoint");
    assert_eq!(ckpt.state.next_round, 5, "snapshot taken at the halt round");

    // Second generation on the same socket, restored from the snapshot.
    // The clients are still alive, spinning in their reconnect loops.
    let opts = ServeOpts {
        checkpoint: Some((path.clone(), 5)),
        resume: Some(path.clone()),
        net: server_net,
        ..ServeOpts::new(clients.len())
    };
    let resumed =
        serve_on(relisten, &opts, &run, &name, &mut NullObserver).expect("resumed run completes");

    for (id, worker) in workers.into_iter().enumerate() {
        let report = worker.join().expect("client thread");
        assert_eq!(report.outcome, ClientOutcome::Finished, "client {id}");
        assert!(
            report.reconnects >= 1,
            "client {id} must have survived the crash by reconnecting"
        );
    }
    assert_eq!(
        resumed.comms.rounds as usize, rounds,
        "resumed run finishes the full budget"
    );
    assert_eq!(
        resumed.history.len(),
        5,
        "eval_every=2 over 10 rounds, history carried across the resume"
    );
    let last = resumed.history.last().expect("final evaluation");
    assert!(
        last.val_acc > 0.0 && last.val_acc <= 1.0,
        "resumed accuracy must stay a sane ratio, got {}",
        last.val_acc
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A server for one party that gives up waiting for it at once: a run
/// nobody joins closes each phase as soon as it opens.
fn lonely_server(
    run: &RunConfig,
    name: &str,
    opts: ServeOpts,
) -> (
    String,
    JoinHandle<Result<fedomd_federated::RunResult, fedomd_net::NetError>>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let (run, name) = (run.clone(), name.to_string());
    let server =
        std::thread::spawn(move || serve_on(listener, &opts, &run, &name, &mut NullObserver));
    (addr, server)
}

fn lonely_opts() -> ServeOpts {
    ServeOpts {
        net: NetConfig {
            join_timeout: Duration::from_millis(300),
            ..quick_net(Duration::from_millis(300))
        },
        ..ServeOpts::new(1)
    }
}

#[test]
fn a_client_with_another_learning_rate_is_refused_naming_lr() {
    let (name, clients, n_classes) = mini_setup(4);
    let run = RunConfig::mini(4).with_rounds(1);
    let (addr, server) = lonely_server(&run, &name, lonely_opts());
    let mut other = run.clone();
    other.train.lr *= 2.0;
    let opts = ClientOpts {
        addr,
        id: 0,
        net: quick_net(Duration::from_secs(2)),
    };
    let err = run_client(
        &opts,
        &other,
        &name,
        1,
        &clients[0],
        n_classes,
        &mut NullObserver,
    )
    .expect_err("a client training another objective must not join");
    match &err {
        fedomd_net::NetError::Rejected(reason) => {
            assert!(reason.contains("`lr` differs"), "got: {reason}")
        }
        other => panic!("expected a rejection, got {other}"),
    }
    // What the server makes of a run nobody joined is not this test's
    // concern; only that it ends.
    let _ = server.join().expect("server thread");
}

#[test]
fn a_resume_under_another_cohort_fraction_is_refused_naming_the_key() {
    let dir = scratch("cohort-resume");
    let path = dir.join("net.ckpt");
    let (name, _, _) = mini_setup(6);
    let run = RunConfig::mini(6).with_rounds(3);
    // Round 0 runs with nobody, checkpoints and halts. This leans on a
    // server still running the rounds of a run nobody joined; should that
    // become an error before round 0, this leg needs a client.
    let opts = ServeOpts {
        halt_after: Some(0),
        checkpoint: Some((path.clone(), 1)),
        ..lonely_opts()
    };
    let (_, first) = lonely_server(&run, &name, opts);
    let _ = first.join().expect("server thread");
    assert!(path.exists(), "the first leg wrote no round-0 checkpoint");

    let other = run
        .clone()
        .with_cohort(fedomd_federated::CohortConfig::fraction(0.5, 0));
    let opts = ServeOpts {
        resume: Some(path.clone()),
        ..lonely_opts()
    };
    let (_, resumed) = lonely_server(&other, &name, opts);
    let err = resumed
        .join()
        .expect("server thread")
        .expect_err("another run's checkpoint must not restore");
    match &err {
        fedomd_net::NetError::Checkpoint(msg) => {
            assert!(msg.contains("`sample_frac` differs"), "got: {msg}")
        }
        other => panic!("expected a checkpoint error, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_cohort_config_is_rejected_before_any_socket_traffic() {
    let (name, clients, n_classes) = mini_setup(3);
    let run = RunConfig::mini(3).with_cohort(fedomd_federated::CohortConfig::fraction(f64::NAN, 0));

    // Server side: the listener is bound but must never be accepted on —
    // serve_on returns the typed config error up front.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let opts = ServeOpts::new(clients.len());
    let err = serve_on(listener, &opts, &run, &name, &mut NullObserver)
        .expect_err("NaN sample_frac must not start a run");
    assert!(
        matches!(
            err,
            fedomd_net::NetError::Config(
                fedomd_federated::CohortConfigError::NonFiniteSampleFrac { .. }
            )
        ),
        "got: {err}"
    );

    // Client side: rejected before the first connection attempt — there is
    // no server behind this address, yet the error is Config, not Io.
    let copts = ClientOpts {
        addr: "127.0.0.1:1".into(),
        id: 0,
        net: NetConfig::default(),
    };
    let bad = RunConfig::mini(3).with_cohort(fedomd_federated::CohortConfig {
        sample_frac: 0.5,
        min_cohort: clients.len() + 1,
        seed: 0,
    });
    let err = run_client(
        &copts,
        &bad,
        &name,
        clients.len(),
        &clients[0],
        n_classes,
        &mut NullObserver,
    )
    .expect_err("oversized min_cohort must not reach the handshake");
    assert!(
        matches!(
            err,
            fedomd_net::NetError::Config(
                fedomd_federated::CohortConfigError::MinCohortExceedsParties { .. }
            )
        ),
        "got: {err}"
    );
}
