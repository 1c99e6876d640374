//! Massive-cohort rounds: latency and peak memory of one full FedOMD
//! round over a 5000-party planted federation, sampling 100 / 1000 / 5000
//! clients per round (DESIGN.md §15).
//!
//! Besides the Criterion timings, each cohort size appends a
//! `cohort_scale/peak_rss_kb/<size>` record to `$CRITERION_JSON` holding
//! the peak RSS (`VmHWM`) in kilobytes — the stub's `mean_ns` field
//! carries the KB value. `VmHWM` is monotone over a process lifetime, so
//! each cohort size runs in a spawned child process (re-exec of this
//! bench binary with `FEDOMD_COHORT_CHILD=<size>`): every RSS record is
//! then the true peak of exactly one cohort size, at the cost of
//! regenerating the federation per child. When re-exec is unavailable
//! (no `current_exe`, spawn failure) the bench falls back to the
//! pre-isolation behavior — sizes run ascending in-process, so a
//! reading is only an upper bound that includes smaller sizes' peaks —
//! and says so on stderr.

use std::io::Write;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedomd_core::{FedOmdConfig, FedRun};
use fedomd_data::{generate, SynthParams};
use fedomd_federated::{setup_federation_planted, CohortConfig, FederationConfig, TrainConfig};

const PARTIES: usize = 5000;
const COHORTS: [usize; 3] = [100, 1000, 5000];

/// Env var selecting child mode: run exactly one cohort size, then exit.
const CHILD_ENV: &str = "FEDOMD_COHORT_CHILD";

/// Peak resident set (`VmHWM`) of this process, in kB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Appends a record in the criterion-stub JSONL schema so `bench_report`
/// folds the RSS next to the timings.
fn record_rss(size: usize) {
    let (Ok(path), Some(kb)) = (std::env::var("CRITERION_JSON"), peak_rss_kb()) else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line =
        format!("{{\"label\":\"cohort_scale/peak_rss_kb/{size}\",\"mean_ns\":{kb},\"min_ns\":{kb},\"iters\":1}}\n");
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
}

/// Benches one cohort size (setup + one-round latency + RSS record).
/// Runs inside the per-size child process, or in-process as the fallback.
fn run_size(c: &mut Criterion, size: usize) {
    let ds = generate(&SynthParams::many_party(PARTIES), 0);
    let clients = setup_federation_planted(&ds, &FederationConfig::mini(PARTIES, 0));

    let mut group = c.benchmark_group("cohort_scale");
    group.sample_size(10);
    // Exactly one full-protocol round (2-round stats exchange + local
    // epochs + streaming aggregation) per iteration.
    let cfg = TrainConfig {
        rounds: 1,
        patience: 1,
        eval_every: 1,
        cohort: if size == PARTIES {
            CohortConfig::full()
        } else {
            CohortConfig::fraction(size as f64 / PARTIES as f64, 0)
        },
        ..TrainConfig::mini(0)
    };
    group.bench_with_input(BenchmarkId::new("round", size), &cfg, |b, cfg| {
        b.iter(|| {
            FedRun::new(&clients, ds.n_classes)
                .train(cfg.clone())
                .omd(FedOmdConfig::paper())
                .run()
        })
    });
    record_rss(size);
    group.finish();
}

fn bench_cohort_scale(c: &mut Criterion) {
    if let Ok(v) = std::env::var(CHILD_ENV) {
        // Child mode: one size, isolated VmHWM, then exit.
        match v.parse::<usize>() {
            Ok(size) => run_size(c, size),
            Err(e) => eprintln!("cohort_scale: bad {CHILD_ENV}={v}: {e}"),
        }
        return;
    }
    for size in COHORTS {
        let spawned = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .env(CHILD_ENV, size.to_string())
                .status()
        });
        match spawned {
            Ok(status) if status.success() => {}
            failed => {
                // Documented fallback: without process isolation VmHWM is
                // shared, so run in-process in ascending size order — the
                // reading is then an upper bound contaminated by smaller
                // sizes (the pre-PR8 methodology).
                eprintln!(
                    "cohort_scale: child for size {size} unavailable ({failed:?}); \
                     falling back to in-process (RSS not isolated)"
                );
                run_size(c, size);
            }
        }
    }
}

criterion_group!(benches, bench_cohort_scale);
criterion_main!(benches);
