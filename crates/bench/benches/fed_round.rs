//! End-to-end cost of one communication round per algorithm — the measured
//! counterpart of the paper's Table 3, under Criterion statistics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedomd_bench::{run_row, table4_rows};
use fedomd_core::{FedOmdConfig, FedRun};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{setup_federation, FederationConfig, Strategy, TrainConfig};
use fedomd_telemetry::{JsonlObserver, NullObserver};

fn bench_round(c: &mut Criterion) {
    let ds = generate(&spec(DatasetName::CoraMini), 0);
    let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
    // Exactly two rounds, no early stopping, sparse eval: the measured body
    // is dominated by the per-round client/server work.
    let cfg = TrainConfig {
        rounds: 2,
        patience: 2,
        eval_every: 2,
        ..TrainConfig::mini(0)
    };

    let mut group = c.benchmark_group("fed_round");
    group.sample_size(10);
    for algo in table4_rows() {
        group.bench_with_input(
            BenchmarkId::new("two_rounds", algo.name()),
            &algo,
            |b, algo| b.iter(|| run_row(algo, &clients, ds.n_classes, &cfg, &mut NullObserver)),
        );
    }
    // FedOMD's stat exchange in isolation (CMD on, 5 orders) vs off.
    let on = Strategy::FedOmd(FedOmdConfig::paper());
    let off = Strategy::FedOmd(FedOmdConfig {
        use_cmd: false,
        ..FedOmdConfig::paper()
    });
    group.bench_function("fedomd_cmd_on", |b| {
        b.iter(|| run_row(&on, &clients, ds.n_classes, &cfg, &mut NullObserver))
    });
    group.bench_function("fedomd_cmd_off", |b| {
        b.iter(|| run_row(&off, &clients, ds.n_classes, &cfg, &mut NullObserver))
    });
    // Telemetry overhead: the same two FedOMD rounds with the zero-cost
    // NullObserver vs a JsonlObserver serialising every event to a sink
    // (DESIGN.md §10 budgets the gap at <1% of round wall-clock).
    group.bench_function("fedomd_telemetry_off", |b| {
        b.iter(|| {
            FedRun::new(&clients, ds.n_classes)
                .train(cfg.clone())
                .omd(FedOmdConfig::paper())
                .run()
        })
    });
    group.bench_function("fedomd_telemetry_jsonl", |b| {
        b.iter(|| {
            let mut sink = JsonlObserver::new(std::io::sink());
            FedRun::new(&clients, ds.n_classes)
                .train(cfg.clone())
                .omd(FedOmdConfig::paper())
                .observer(&mut sink)
                .run()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
