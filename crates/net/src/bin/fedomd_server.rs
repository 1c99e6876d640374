//! `fedomd-server` — hosts one FedOMD run for real client processes.
//!
//! ```text
//! fedomd-server [--addr 127.0.0.1:7447] [--parties 3] [--dataset cora-mini]
//!               [--seed 0] [--rounds N] [--KEY VALUE for any other run spec key]
//!               [--checkpoint PATH [--checkpoint_every K] [--resume PATH]]
//!               [--phase_timeout_ms MS] [--quiet]
//! ```
//!
//! The server never touches the dataset: it aggregates whatever its
//! clients report. The run spec flags (`fedomd_federated::RunSpec::read`)
//! only pin what the handshake checks, so a client started with another
//! dataset, seed, learning rate or β is rejected, naming the key, instead
//! of silently polluting the aggregation; `--resume` refuses a checkpoint
//! of another run the same way. Exit codes: 0 run complete, 1 transport
//! or checkpoint failure, 2 usage error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fedomd_core::RunConfig;
use fedomd_federated::{Flags, RunSpec};
use fedomd_net::{serve, NetConfig, ServeOpts};
use fedomd_telemetry::{ConsoleObserver, NullObserver, RoundObserver};

fn main() -> ExitCode {
    serve_cli().unwrap_or_else(|msg| {
        eprintln!("fedomd-server: {msg}");
        ExitCode::from(2)
    })
}

fn serve_cli() -> Result<ExitCode, String> {
    let mut flags = Flags::parse(std::env::args().skip(1), &["quiet"])?;
    let addr = flags.take_or("addr", "127.0.0.1:7447".to_string())?;
    let checkpoint: Option<PathBuf> = flags.take("checkpoint")?;
    let every = flags.take_or("checkpoint_every", 10)?;
    let resume: Option<PathBuf> = flags.take("resume")?;
    if resume.is_some() && checkpoint.is_none() {
        return Err("--resume needs --checkpoint, so the resumed leg keeps saving".into());
    }
    let mut net = NetConfig::default();
    if let Some(ms) = flags.take("phase_timeout_ms")? {
        net.phase_timeout = Duration::from_millis(ms);
    }
    let quiet = flags.take_or("quiet", false)?;
    let spec = RunSpec::read(&mut flags)?;
    flags.finish()?;
    let omd = spec.omd().ok_or("fedomd-server runs FedOMD only")?;
    let dataset = spec.dataset.clone().ok_or("no --dataset")?;
    let opts = ServeOpts {
        n_clients: spec.parties,
        halt_after: None,
        checkpoint: checkpoint.map(|p| (p, every)),
        resume,
        net,
    };
    let run = RunConfig {
        train: spec.train.clone(),
        omd,
    };

    let mut console;
    let mut null = NullObserver;
    let obs: &mut dyn RoundObserver = if quiet {
        &mut null
    } else {
        console = ConsoleObserver::stderr();
        &mut console
    };
    eprintln!(
        "fedomd-server: hosting {dataset} (seed {}) for {} clients on {addr}",
        run.train.seed, spec.parties
    );
    match serve(&addr, &opts, &run, &dataset, obs) {
        Ok(result) => {
            println!(
                "fedomd-server: done — best val {:.4}, test {:.4} (round {}), {} history entries",
                result.val_acc,
                result.test_acc,
                result.best_round,
                result.history.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("fedomd-server: {e}");
            Ok(ExitCode::from(1))
        }
    }
}
