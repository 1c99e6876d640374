//! General-purpose CLI: run any algorithm on any dataset/party-count
//! combination and print accuracy, traffic, and per-phase timing.
//!
//! ```text
//! cargo run --release -p fedomd-bench --bin fedomd_run -- \
//!     --algo fedomd --dataset cora-mini --parties 5 --seed 0
//! cargo run --release -p fedomd-bench --bin fedomd_run -- --algo fedgcn --dataset photo-mini
//! cargo run --release -p fedomd-bench --bin fedomd_run -- \
//!     --algo fedomd --telemetry trace.jsonl --verbose
//! ```
//!
//! Every run spec key is a flag (`fedomd_federated::RunSpec::read`):
//! `--rounds`, `--lr`, `--beta`, `--sample_frac`, ...; an absent key keeps
//! the dataset's preset.
//!
//! `--telemetry <path>` writes the full round-event stream as JSONL (one
//! event per line, see DESIGN.md §10); `--verbose` prints per-evaluation
//! round lines to stderr. Both are pure observers: attaching them does not
//! change any reported number. The client / server / inference times are the
//! run's `PhaseDone` segments, folded by [`PhaseTotals`] as Table 3 does.
//!
//! `--checkpoint <path>` snapshots the full run state to `path` every
//! `--checkpoint_every N` rounds (default 1); `--resume <path>` picks a
//! killed run back up from its latest snapshot, bit-identical to the
//! uninterrupted run (DESIGN.md §11), for FedOMD and every baseline.

use fedomd_bench::PhaseTotals;
use fedomd_core::{FedRun, RunConfig};
use fedomd_data::{generate, spec};
use fedomd_federated::helpers::argmax_row;
use fedomd_federated::{setup_federation, Flags, RunSpec, Strategy};
use fedomd_telemetry::{ConsoleObserver, JsonlObserver, TeeObserver};

const USAGE: &str =
    "usage: fedomd_run [--algo fedomd|fedmlp|fedprox|scaffold|locgcn|fedgcn|fedsage+|fedlit]
                  [--dataset NAME[-mini]] [--parties M] [--seed S] [--rounds R]
                  [--KEY VALUE for any other run spec key: --lr, --beta, --sample_frac, ...]
                  [--resolution RES] [--telemetry PATH.jsonl] [--verbose]
                  [--checkpoint PATH.ckpt] [--checkpoint_every N] [--resume PATH.ckpt]";

fn main() {
    if let Err(e) = run_cli() {
        eprintln!("fedomd_run: {e}\n{USAGE}");
        std::process::exit(2)
    }
}

fn run_cli() -> Result<(), String> {
    let mut flags = Flags::parse(std::env::args().skip(1), &["verbose"])?;
    let resolution = flags.take_or("resolution", 1.0)?;
    let telemetry: Option<String> = flags.take("telemetry")?;
    let verbose = flags.take_or("verbose", false)?;
    let checkpoint: Option<String> = flags.take("checkpoint")?;
    let checkpoint_every = flags.take_or("checkpoint_every", 1)?;
    let resume: Option<String> = flags.take("resume")?;
    let run_spec = RunSpec::read(&mut flags)?;
    flags.finish()?;
    let name = run_spec.dataset_name().ok_or("no --dataset")?;
    let seed = run_spec.train.seed;
    let ds = generate(&spec(name), seed);
    let mut fed = run_spec.federation();
    fed.resolution = resolution;
    let clients = setup_federation(&ds, &fed);

    println!(
        "{} on {} · M={} · resolution {resolution} · seed {seed}",
        run_spec.strategy.name(),
        ds.name,
        run_spec.parties,
    );
    let mut jsonl = (telemetry.as_deref().map(JsonlObserver::create).transpose())
        .map_err(|e| format!("cannot open the telemetry file: {e}"))?;
    let mut console = verbose.then(ConsoleObserver::stderr);
    let mut fed_run = FedRun::new(&clients, ds.n_classes).config(RunConfig {
        train: run_spec.train.clone(),
        omd: run_spec.omd().unwrap_or_default(),
    });
    if let Strategy::Baseline(b) = run_spec.strategy {
        fed_run = fed_run.baseline(b);
    }
    if let Some(path) = &checkpoint {
        fed_run = fed_run.checkpoint_every(checkpoint_every, path);
    }
    if let Some(path) = &resume {
        fed_run = fed_run
            .resume_from(path)
            .map_err(|e| format!("cannot resume from {path}: {e}"))?;
    }
    let mut totals = PhaseTotals::default();
    let result = match (&mut jsonl, &mut console) {
        (Some(j), Some(c)) => fed_run
            .observer(&mut TeeObserver::new(
                &mut totals,
                &mut TeeObserver::new(j, c),
            ))
            .run(),
        (Some(j), None) => fed_run
            .observer(&mut TeeObserver::new(&mut totals, j))
            .run(),
        (None, Some(c)) => fed_run
            .observer(&mut TeeObserver::new(&mut totals, c))
            .run(),
        (None, None) => fed_run.observer(&mut totals).run(),
    };
    drop(jsonl); // flush the JSONL buffer before reporting
    if let Some(path) = &telemetry {
        eprintln!("telemetry trace written to {path}");
    }

    // Label-skew context: the fraction a per-party majority-class predictor
    // (majority of the party's train labels) scores on the test sets.
    let mut majority_correct = 0usize;
    let mut test_total = 0usize;
    for c in &clients {
        let mut counts = vec![0usize; ds.n_classes];
        for &i in &c.splits.train {
            counts[c.labels[i]] += 1;
        }
        let majority = argmax_row(&counts.iter().map(|&x| x as f32).collect::<Vec<_>>());
        majority_correct += c
            .splits
            .test
            .iter()
            .filter(|&&i| c.labels[i] == majority)
            .count();
        test_total += c.splits.test.len();
    }

    println!("  test accuracy        : {:.2}%", 100.0 * result.test_acc);
    println!("  best round           : {}", result.best_round);
    println!(
        "  local-majority floor : {:.2}%",
        100.0 * majority_correct as f64 / test_total.max(1) as f64
    );
    println!("  rounds run           : {}", result.comms.rounds);
    println!(
        "  uplink               : {:.2} MB",
        result.comms.uplink_bytes as f64 / 1e6
    );
    println!(
        "  stats share          : {:.3}%",
        100.0 * result.comms.stats_fraction()
    );
    println!("  time[client]         : {:.1} ms", totals.client_ms());
    println!("  time[server]         : {:.1} ms", totals.server_ms());
    println!("  time[inference]      : {:.1} ms", totals.inference_ms());
    Ok(())
}
