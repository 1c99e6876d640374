//! Lossy network demo: the same FedOMD run over a perfect in-process
//! channel and over a deterministic faulty network (`SimNetChannel`),
//! showing retries, dropped frames, and partial aggregation at work.
//!
//! ```text
//! cargo run --release --example lossy_network
//! ```

use std::collections::BTreeMap;

use fedomd_core::{FedOmdConfig, FedRun};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{setup_federation, FederationConfig, TrainConfig};
use fedomd_telemetry::{MemoryObserver, RoundEvent};
use fedomd_transport::{FaultConfig, SimNetChannel};

fn main() {
    let dataset = generate(&spec(DatasetName::CoraMini), 0);
    let clients = setup_federation(&dataset, &FederationConfig::mini(4, 0));
    let cfg = TrainConfig::mini(0);
    let omd = FedOmdConfig::paper();

    // Baseline: the fault-free in-process channel a `FedRun` uses by
    // default.
    let clean = FedRun::new(&clients, dataset.n_classes)
        .train(cfg.clone())
        .omd(omd)
        .run();

    // The same run across a lossy network: 15 % frame loss, one retry,
    // client 2 a 4x straggler against a 50 ms round deadline. Everything
    // is derived from `seed`, so reruns reproduce the exact loss pattern.
    let faults = FaultConfig {
        seed: 7,
        drop_prob: 0.15,
        max_retries: 1,
        straggler_ids: vec![2],
        straggler_factor: 4.0,
        round_timeout_ms: 50.0,
        ..Default::default()
    };
    let mut simnet = SimNetChannel::new(faults);
    // A telemetry observer rides along: the trace reports every frame
    // sent and every frame lost, with its payload kind and size — the run's
    // byte ledger is the fold of exactly these events.
    let mut mem = MemoryObserver::new();
    let lossy = FedRun::new(&clients, dataset.n_classes)
        .train(cfg.clone())
        .omd(omd)
        .channel(&mut simnet)
        .observer(&mut mem)
        .run();

    println!("channel    test acc   uplink MB   dropped frames   retries");
    println!(
        "in-proc    {:6.2}%    {:8.2}    {:14}   {:>7}",
        100.0 * clean.test_acc,
        clean.comms.uplink_bytes as f64 / 1e6,
        clean.comms.dropped_messages,
        "-",
    );
    println!(
        "simnet     {:6.2}%    {:8.2}    {:14}   {:7}",
        100.0 * lossy.test_acc,
        lossy.comms.uplink_bytes as f64 / 1e6,
        lossy.comms.dropped_messages,
        simnet.retries(),
    );
    let sent = mem.count("frame_sent");
    println!(
        "\nsimnet sent {sent} frames, delivered {} — the server aggregates whatever",
        sent - mem.count("frame_dropped")
    );
    println!("arrives by the deadline; missing parties just sit a round out.");

    let mut lost: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in &mem.events {
        if let RoundEvent::FrameDropped { kind, bytes } = e {
            let slot = lost.entry(kind).or_default();
            slot.0 += 1;
            slot.1 += bytes;
        }
    }
    println!("\nlost frames by payload kind (from the telemetry trace):");
    for (kind, (count, bytes)) in &lost {
        println!(
            "  {kind:12} {count:4} frames, {:.1} kB",
            *bytes as f64 / 1e3
        );
    }
    println!(
        "partial rounds: {} of {} aggregations ran with fewer than {} parties",
        mem.events
            .iter()
            .filter(|e| matches!(
                e,
                RoundEvent::AggregationDone { participants } if *participants < clients.len()
            ))
            .count(),
        mem.count("aggregation_done"),
        clients.len()
    );
}
