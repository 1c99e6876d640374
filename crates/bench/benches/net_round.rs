//! The price of real sockets: the same two FedOMD rounds driven over the
//! in-process channel vs the TCP-loopback deployment (DESIGN.md §14).
//! The loopback figure includes the whole deployment lifecycle — bind,
//! handshake, three client threads, teardown — which is exactly what a
//! `fedomd-server` + `fedomd-client` restart costs.

#![allow(
    clippy::disallowed_methods,
    reason = "server and clients on joined threads"
)]

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use fedomd_core::{run_config_digest, FedOmdConfig, FedRun, RunConfig};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{setup_federation, ClientData, FederationConfig, RunResult, TrainConfig};
use fedomd_net::{
    run_client, serve_on, ClientOpts, Hello, NetConfig, ServeOpts, Welcome, PROTOCOL_VERSION,
};
use fedomd_telemetry::NullObserver;
use fedomd_transport::{Envelope, Payload, Tensor};

fn two_round_config() -> RunConfig {
    // Exactly two rounds, no early stopping, sparse eval — the same
    // measured body as the fed_round suite, so the two files compare.
    let train = TrainConfig {
        rounds: 2,
        patience: 2,
        eval_every: 2,
        ..TrainConfig::mini(0)
    };
    RunConfig::mini(0).with_train(train)
}

fn loopback_net() -> NetConfig {
    NetConfig {
        phase_timeout: Duration::from_secs(10),
        connect_attempts: 100,
        connect_backoff: Duration::from_millis(10),
        join_timeout: Duration::from_secs(30),
        ..NetConfig::default()
    }
}

/// One full TCP deployment on an ephemeral loopback port: server plus
/// one thread per client, joined to completion.
fn tcp_run(run: &RunConfig, name: &str, clients: &[ClientData], n_classes: usize) -> RunResult {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let net = loopback_net();
    let server = {
        let run = run.clone();
        let name = name.to_string();
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
            let opts = ClientOpts {
                addr: addr.clone(),
                id: id as u32,
                net,
            };
            let (run, name, shard) = (run.clone(), name.to_string(), shard.clone());
            let n = clients.len();
            std::thread::spawn(move || {
                run_client(&opts, &run, &name, n, &shard, n_classes, &mut NullObserver)
                    .expect("client run")
            })
        })
        .collect();
    let result = server
        .join()
        .expect("server thread")
        .expect("server run completes");
    for w in workers {
        w.join().expect("client thread");
    }
    result
}

/// The pre-encoded `(WeightUpdate, Metrics)` wire bytes a scripted client
/// ships each round, shared across the bench's iterations.
type RoundFrames = Arc<Vec<(Vec<u8>, Vec<u8>)>>;

/// Reads one length-prefixed frame into a reusable scratch buffer without
/// decoding it — the cheapest faithful way for a scripted client to
/// acknowledge a downlink.
fn discard_frame(r: &mut impl Read, scratch: &mut Vec<u8>) {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).expect("frame length");
    scratch.resize(u32::from_le_bytes(len) as usize, 0);
    r.read_exact(scratch).expect("frame body");
}

/// One scripted client for the heterogeneous-workload bench: handshakes
/// like `fedomd-client`, then per round "trains" by sleeping its stagger,
/// ships a pre-encoded `WeightUpdate` + `Metrics` pair, and discard-reads
/// the downlink (`GlobalModel`, then the `Control` verdict on every round
/// but its last). The script stands in for a *remote* machine, so none of
/// its CPU belongs in the measurement: frames are encoded once outside
/// the timed region, downlinks are drained unread, and the stagger is a
/// sleep rather than compute. What remains on this box is the server's
/// own work — and the idle arrival spread the server folds in.
fn fake_client(addr: String, id: u32, digest: u64, stagger: Duration, frames: RoundFrames) {
    let mut stream = TcpStream::connect(&addr).expect("fake client connect");
    // Same socket discipline as `run_client`: without it the tiny length
    // prefixes stall on Nagle + delayed ACK and swamp the measurement.
    stream.set_nodelay(true).expect("nodelay");
    let mut scratch = Vec::new();
    Hello {
        version: PROTOCOL_VERSION,
        client_id: id,
        digest,
    }
    .write_to(&mut stream)
    .expect("hello");
    let welcome = Welcome::read_from(&mut stream).expect("welcome");
    assert!(welcome.accept, "fake client rejected: {}", welcome.reason);
    if welcome.has_model {
        discard_frame(&mut stream, &mut scratch);
    }
    let rounds = frames.len();
    for (r, (weights, metrics)) in frames.iter().enumerate() {
        std::thread::sleep(stagger);
        stream.write_all(weights).expect("upload");
        discard_frame(&mut stream, &mut scratch); // global model
        stream.write_all(metrics).expect("metrics");
        // The server only downlinks a verdict between rounds; a client's
        // last scheduled round ends without one (see run_fedomd_server).
        if r + 1 < rounds {
            discard_frame(&mut stream, &mut scratch);
        }
    }
}

/// A frame with its length prefix baked in, so shipping it is a single
/// `write_all` — the same bytes `write_prefixed` puts on the wire.
fn prefixed(frame: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + frame.len());
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame);
    out
}

/// Pre-encodes every frame client `id` will ship across `rounds` rounds:
/// one ~`params`-sized `WeightUpdate` plus one `Metrics` report per round.
fn hetero_frames(id: u32, rounds: usize, params: &[Tensor]) -> RoundFrames {
    Arc::new(
        (0..rounds as u64)
            .map(|round| {
                let weights = Envelope {
                    round,
                    sender: id,
                    payload: Payload::WeightUpdate {
                        params: params.to_vec(),
                    },
                }
                .encode();
                let metrics = Envelope {
                    round,
                    sender: id,
                    payload: Payload::Metrics {
                        train_loss: 1.0,
                        val_correct: 1,
                        val_total: 2,
                        test_correct: 1,
                        test_total: 2,
                    },
                }
                .encode();
                (prefixed(weights), prefixed(metrics))
            })
            .collect(),
    )
}

/// A TCP deployment over scripted clients with staggered upload times
/// (client `i` sleeps `i × step` per round before shipping its frames).
fn hetero_tcp_run(run: &RunConfig, name: &str, step: Duration, frames: &[RoundFrames]) {
    let m = frames.len();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = {
        let run = run.clone();
        let name = name.to_string();
        let opts = ServeOpts {
            net: loopback_net(),
            ..ServeOpts::new(m)
        };
        std::thread::spawn(move || serve_on(listener, &opts, &run, &name, &mut NullObserver))
    };
    let digest = run_config_digest(&run.train, &run.omd, name, m);
    let workers: Vec<_> = frames
        .iter()
        .enumerate()
        .map(|(id, frames)| {
            let (addr, frames) = (addr.clone(), Arc::clone(frames));
            let id = id as u32;
            std::thread::spawn(move || fake_client(addr, id, digest, step * id, frames))
        })
        .collect();
    server
        .join()
        .expect("server thread")
        .expect("server run completes");
    for w in workers {
        w.join().expect("fake client thread");
    }
}

fn bench_net_round(c: &mut Criterion) {
    let ds = generate(&spec(DatasetName::CoraMini), 0);
    let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
    let run = two_round_config();

    let mut group = c.benchmark_group("net_round");
    group.sample_size(10);
    group.bench_function("inproc_two_rounds", |b| {
        b.iter(|| {
            FedRun::new(&clients, ds.n_classes)
                .config(run.clone())
                .run()
        })
    });
    group.bench_function("tcp_loopback_two_rounds", |b| {
        b.iter(|| tcp_run(&run, &ds.name, &clients, ds.n_classes))
    });

    // Heterogeneous client workloads: 6 scripted clients whose ~4 MB
    // WeightUpdates land 16 ms apart. The server decodes and folds each
    // frame inside the arrival gaps, so per-upload server work stays off
    // the round's critical path. The stagger must exceed the per-upload
    // server cost (~6 ms decode + ~6 ms fold on this class of box):
    // narrower gaps oversubscribe the CPU, folds queue past the last
    // arrival, and the overlap the bench is probing disappears into
    // scheduler contention.
    let hetero = {
        let train = TrainConfig {
            rounds: 6,
            patience: 8,
            eval_every: 6,
            ..TrainConfig::mini(0)
        };
        // No CMD: the stats exchange is off the measured path, leaving
        // exactly the weight-upload fold the bench is probing.
        let omd = FedOmdConfig {
            use_cmd: false,
            ..FedOmdConfig::paper()
        };
        RunConfig::mini(0).with_train(train).with_omd(omd)
    };
    let params: Vec<Tensor> = (0..4)
        .map(|i| Tensor {
            rows: 512,
            cols: 512,
            data: vec![0.5 + i as f32; 512 * 512],
        })
        .collect();
    let frames: Vec<_> = (0..6)
        .map(|id| hetero_frames(id, hetero.train.rounds, &params))
        .collect();
    let step = Duration::from_millis(16);
    group.bench_function("tcp_hetero", |b| {
        b.iter(|| hetero_tcp_run(&hetero, "hetero-bench", step, &frames))
    });
    group.finish();
}

criterion_group!(benches, bench_net_round);
criterion_main!(benches);
