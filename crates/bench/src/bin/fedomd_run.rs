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
//! `--telemetry <path>` writes the full round-event stream as JSONL (one
//! event per line, see DESIGN.md §10); `--verbose` prints per-evaluation
//! round lines to stderr. Both are pure observers: attaching them does not
//! change any reported number. The client / server / inference times are the
//! run's `PhaseDone` segments, folded by [`PhaseTotals`] as Table 3 does.
//!
//! `--checkpoint <path>` snapshots the full run state to `path` every
//! `--checkpoint-every N` rounds (default 1); `--resume <path>` picks a
//! killed run back up from its latest snapshot, bit-identical to the
//! uninterrupted run (DESIGN.md §11), for FedOMD and every baseline.

use fedomd_bench::PhaseTotals;
use fedomd_core::{FedOmdConfig, FedRun, RunConfig};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::baselines::Baseline;
use fedomd_federated::helpers::argmax_row;
use fedomd_federated::{setup_federation, FederationConfig, TrainConfig};
use fedomd_telemetry::{ConsoleObserver, JsonlObserver, RoundObserver, TeeObserver};

struct Args {
    algo: String,
    dataset: DatasetName,
    parties: usize,
    seed: u64,
    rounds: Option<usize>,
    resolution: f64,
    telemetry: Option<String>,
    verbose: bool,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    resume: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fedomd_run --algo <fedomd|fedmlp|fedprox|scaffold|locgcn|fedgcn|fedsage+|fedlit>\n\
         \x20                --dataset <name[-mini]> [--parties M] [--seed S]\n\
         \x20                [--rounds R] [--resolution RES]\n\
         \x20                [--telemetry PATH.jsonl] [--verbose]\n\
         \x20                [--checkpoint PATH.ckpt] [--checkpoint-every N] [--resume PATH.ckpt]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut algo = "fedomd".to_string();
    let mut dataset = DatasetName::CoraMini;
    let mut parties = 3usize;
    let mut seed = 0u64;
    let mut rounds = None;
    let mut resolution = 1.0f64;
    let mut telemetry = None;
    let mut verbose = false;
    let mut checkpoint = None;
    let mut checkpoint_every = 1usize;
    let mut resume = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--algo" => algo = value(),
            "--dataset" => {
                dataset = DatasetName::parse(&value()).unwrap_or_else(|| usage());
            }
            "--parties" => parties = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--rounds" => rounds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--resolution" => resolution = value().parse().unwrap_or_else(|_| usage()),
            "--telemetry" => telemetry = Some(value()),
            "--verbose" | "-v" => verbose = true,
            "--checkpoint" => checkpoint = Some(value()),
            "--checkpoint-every" => {
                checkpoint_every = value().parse().unwrap_or_else(|_| usage());
            }
            "--resume" => resume = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args {
        algo,
        dataset,
        parties,
        seed,
        rounds,
        resolution,
        telemetry,
        verbose,
        checkpoint,
        checkpoint_every,
        resume,
    }
}

fn main() {
    let args = parse_args();
    let ds = generate(&spec(args.dataset), args.seed);
    let is_mini = ds.name.ends_with("-mini");
    let mut fed = if is_mini {
        FederationConfig::mini(args.parties, args.seed)
    } else {
        FederationConfig::paper(args.parties, args.seed)
    };
    fed.resolution = args.resolution;
    let clients = setup_federation(&ds, &fed);
    let mut cfg = if is_mini {
        TrainConfig::mini(args.seed)
    } else {
        TrainConfig::paper(args.seed)
    };
    if let Some(r) = args.rounds {
        cfg.rounds = r;
        cfg.patience = r;
    }

    println!(
        "{} on {} · M={} · resolution {} · seed {}",
        args.algo, ds.name, args.parties, args.resolution, args.seed
    );
    let mut jsonl = args.telemetry.as_deref().map(|path| {
        JsonlObserver::create(path).unwrap_or_else(|e| {
            eprintln!("fedomd_run: cannot open telemetry file {path}: {e}");
            std::process::exit(2)
        })
    });
    let mut console = args.verbose.then(ConsoleObserver::stderr);
    let baseline = if args.algo.eq_ignore_ascii_case("fedomd") {
        None
    } else {
        Some(Baseline::parse(&args.algo).unwrap_or_else(|| usage()))
    };
    let run = |obs: &mut dyn RoundObserver| {
        let mut fed_run = FedRun::new(&clients, ds.n_classes)
            .config(RunConfig {
                train: cfg.clone(),
                omd: FedOmdConfig::paper(),
            })
            .observer(obs);
        if let Some(b) = baseline {
            fed_run = fed_run.baseline(b);
        }
        if let Some(path) = &args.checkpoint {
            fed_run = fed_run.checkpoint_every(args.checkpoint_every, path);
        }
        if let Some(path) = &args.resume {
            fed_run = fed_run.resume_from(path).unwrap_or_else(|e| {
                eprintln!("fedomd_run: cannot resume from {path}: {e}");
                std::process::exit(2)
            });
        }
        fed_run.run()
    };
    let mut totals = PhaseTotals::default();
    let result = match (&mut jsonl, &mut console) {
        (Some(j), Some(c)) => run(&mut TeeObserver::new(
            &mut totals,
            &mut TeeObserver::new(j, c),
        )),
        (Some(j), None) => run(&mut TeeObserver::new(&mut totals, j)),
        (None, Some(c)) => run(&mut TeeObserver::new(&mut totals, c)),
        (None, None) => run(&mut totals),
    };
    drop(jsonl); // flush the JSONL buffer before reporting
    if let Some(path) = &args.telemetry {
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
}
