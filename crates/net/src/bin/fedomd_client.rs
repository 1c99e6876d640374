//! `fedomd-client` — trains one federated party against `fedomd-server`.
//!
//! ```text
//! fedomd-client --id I [--addr 127.0.0.1:7447] [--parties 3]
//!               [--dataset cora-mini] [--seed 0] [--rounds N]
//!               [--KEY VALUE for any other run spec key]
//!               [--phase_timeout_ms MS] [--quiet]
//! ```
//!
//! The client regenerates the dataset and takes its own Louvain shard
//! (`--id` of `--parties`) — no files move between processes; the
//! handshake's run spec comparison guarantees every process derived the
//! same federation and trains the same objective. It keeps training
//! through server restarts, reconnecting with backoff and resuming at
//! whatever round the server's handshake names. Exit codes: 0 run
//! complete (or stopped early by the server's verdict), 1 the server
//! stayed unreachable or rejected the handshake, 2 usage error.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use fedomd_core::RunConfig;
use fedomd_data::{generate, spec};
use fedomd_federated::{client_shard, Flags, RunSpec};
use fedomd_net::{run_client, ClientOpts, NetConfig};
use fedomd_telemetry::{ConsoleObserver, NullObserver, RoundObserver};

fn main() -> ExitCode {
    client_cli().unwrap_or_else(|msg| {
        eprintln!("fedomd-client: {msg}");
        ExitCode::from(2)
    })
}

fn client_cli() -> Result<ExitCode, String> {
    let mut flags = Flags::parse(std::env::args().skip(1), &["quiet"])?;
    let addr = flags.take_or("addr", "127.0.0.1:7447".to_string())?;
    let id: u32 = flags.take("id")?.ok_or("--id is required")?;
    let mut net = NetConfig::default();
    if let Some(ms) = flags.take("phase_timeout_ms")? {
        net.phase_timeout = Duration::from_millis(ms);
    }
    let quiet = flags.take_or("quiet", false)?;
    let run_spec = RunSpec::read(&mut flags)?;
    flags.finish()?;
    let omd = run_spec.omd().ok_or("fedomd-client runs FedOMD only")?;
    let name = run_spec.dataset_name().ok_or("no --dataset")?;
    let parties = run_spec.parties;
    if id as usize >= parties {
        return Err(format!("--id {id} out of range for {parties} parties"));
    }
    let run = RunConfig {
        train: run_spec.train.clone(),
        omd,
    };

    let seed = run.train.seed;
    let params = spec(name);
    eprintln!(
        "fedomd-client {id}: generating {} (seed {seed}) and cutting shard {id}/{parties}",
        params.name
    );
    let ds = generate(&params, seed);
    let Some(shard) = client_shard(&ds, &run_spec.federation(), id as usize) else {
        eprintln!("fedomd-client: the Louvain cut produced no shard {id} of {parties}");
        return Ok(ExitCode::from(1));
    };

    let mut console;
    let mut null = NullObserver;
    let obs: &mut dyn RoundObserver = if quiet {
        &mut null
    } else {
        console = ConsoleObserver::stderr();
        &mut console
    };
    let opts = ClientOpts { addr, id, net };
    match run_client(&opts, &run, &ds.name, parties, &shard, ds.n_classes, obs) {
        Ok(report) => {
            println!(
                "fedomd-client {id}: {:?} after {} reconnect(s)",
                report.outcome, report.reconnects
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("fedomd-client {id}: {e}");
            Ok(ExitCode::from(1))
        }
    }
}
