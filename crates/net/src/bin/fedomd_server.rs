//! `fedomd-server` — hosts one FedOMD run for real client processes.
//!
//! ```text
//! fedomd-server --addr 127.0.0.1:7447 --clients 3 [--dataset cora-mini]
//!               [--seed 0] [--rounds N] [--checkpoint PATH [--every K] [--resume]]
//!               [--phase-timeout-ms MS] [--quiet]
//! ```
//!
//! The server never touches the dataset: it aggregates whatever its
//! clients report. `--dataset`/`--seed`/`--clients` only pin the
//! run-configuration digest that the handshake checks, so a client
//! started against a different dataset or seed is rejected instead of
//! silently polluting the aggregation. Exit codes: 0 run complete, 1
//! transport or checkpoint failure, 2 usage error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fedomd_core::RunConfig;
use fedomd_data::{spec, DatasetName};
use fedomd_net::{serve, NetConfig, ServeOpts};
use fedomd_telemetry::{ConsoleObserver, NullObserver, RoundObserver};

struct Args {
    addr: String,
    clients: usize,
    dataset: String,
    seed: u64,
    rounds: Option<usize>,
    checkpoint: Option<PathBuf>,
    every: usize,
    resume: bool,
    phase_timeout_ms: Option<u64>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7447".into(),
        clients: 0,
        dataset: "cora-mini".into(),
        seed: 0,
        rounds: None,
        checkpoint: None,
        every: 10,
        resume: false,
        phase_timeout_ms: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--dataset" => args.dataset = value("--dataset")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--rounds" => {
                args.rounds = Some(
                    value("--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                )
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--every" => {
                args.every = value("--every")?
                    .parse()
                    .map_err(|e| format!("--every: {e}"))?
            }
            "--resume" => args.resume = true,
            "--phase-timeout-ms" => {
                args.phase_timeout_ms = Some(
                    value("--phase-timeout-ms")?
                        .parse()
                        .map_err(|e| format!("--phase-timeout-ms: {e}"))?,
                )
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: fedomd-server --addr HOST:PORT --clients N [--dataset NAME] \
                     [--seed S] [--rounds R] [--checkpoint PATH [--every K] [--resume]] \
                     [--phase-timeout-ms MS] [--quiet]"
                        .into(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.clients == 0 {
        return Err("--clients is required and must be > 0".into());
    }
    if args.resume && args.checkpoint.is_none() {
        return Err("--resume needs --checkpoint".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("fedomd-server: {msg}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = DatasetName::parse(&args.dataset) else {
        eprintln!("fedomd-server: unknown dataset `{}`", args.dataset);
        return ExitCode::from(2);
    };
    let dataset = spec(name).name;
    let mut run = if dataset.ends_with("-mini") {
        RunConfig::mini(args.seed)
    } else {
        RunConfig::paper(args.seed)
    };
    if let Some(rounds) = args.rounds {
        run.train.rounds = rounds;
    }
    let mut net = NetConfig::default();
    if let Some(ms) = args.phase_timeout_ms {
        net.phase_timeout = Duration::from_millis(ms);
    }
    let opts = ServeOpts {
        n_clients: args.clients,
        halt_after: None,
        checkpoint: args.checkpoint.map(|p| (p, args.every)),
        resume: args.resume,
        net,
    };

    let mut console;
    let mut null = NullObserver;
    let obs: &mut dyn RoundObserver = if args.quiet {
        &mut null
    } else {
        console = ConsoleObserver::stderr();
        &mut console
    };
    eprintln!(
        "fedomd-server: hosting {dataset} (seed {}) for {} clients on {}",
        args.seed, args.clients, args.addr
    );
    match serve(&args.addr, &opts, &run, &dataset, obs) {
        Ok(result) => {
            println!(
                "fedomd-server: done — best val {:.4}, test {:.4} (round {}), {} history entries",
                result.val_acc,
                result.test_acc,
                result.best_round,
                result.history.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fedomd-server: {e}");
            ExitCode::from(1)
        }
    }
}
