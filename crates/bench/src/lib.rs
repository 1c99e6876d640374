//! Shared harness for the bench binaries that regenerate every table and
//! figure of the paper (see DESIGN.md §5 for the experiment index).
//!
//! Every binary accepts:
//!
//! * `--scale mini|paper` — mini (default) uses the ~10× smaller synthetic
//!   datasets and shorter training; paper uses Table 2-sized datasets and
//!   the paper's 1000-round/patience-200 schedule.
//! * `--seeds N` — number of seeds to average (default 3 mini / 5 paper).
//! * `--json PATH` — also write the machine-readable [`ExperimentRecord`].
//! * `--quick` — clamp rounds to a handful (CI smoke mode).
//!
//! The binaries print [`Table`]s of seed [`Summary`] cells; Table 3's
//! measured columns fold the run's phase timings through [`PhaseTotals`].

pub mod heterogeneity;
mod phase_totals;
mod record;
mod stats;
mod table;

pub use phase_totals::PhaseTotals;
pub use record::{CellRecord, ExperimentRecord};
pub use stats::{mean_std, Summary};
pub use table::Table;

use std::path::PathBuf;

use fedomd_data::{generate, spec, Dataset, DatasetName};
use fedomd_federated::{
    setup_federation, ClientData, FedOmdConfig, FederationConfig, Flags, Persistence, RunResult,
    Strategy, TrainConfig,
};
use fedomd_telemetry::{NullObserver, RoundObserver};
use fedomd_transport::InProcChannel;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// ~10× smaller datasets, short schedule (default).
    Mini,
    /// Table 2-sized datasets, the paper's schedule.
    Paper,
}

impl Scale {
    /// Lowercase name for records.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Mini => "mini",
            Scale::Paper => "paper",
        }
    }
}

/// Parsed command-line options.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    pub scale: Scale,
    pub seeds: Vec<u64>,
    pub json: Option<PathBuf>,
    pub quick: bool,
}

impl HarnessOpts {
    /// Parses `std::env::args`, panicking with a usage message on bad input.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        Self::read(args).unwrap_or_else(|e| {
            panic!("{e} (flags: --scale mini|paper, --seeds N, --json PATH, --quick)")
        })
    }

    fn read(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut flags = Flags::parse(args, &["quick"])?;
        let scale = match flags.take_or("scale", "mini".to_string())?.as_str() {
            "mini" => Scale::Mini,
            "paper" => Scale::Paper,
            other => return Err(format!("unknown scale {other:?} (use mini|paper)")),
        };
        // The paper averages 5 runs.
        let default_seeds = if scale == Scale::Paper { 5 } else { 3 };
        let seeds = (0..flags.take_or("seeds", default_seeds)?).collect();
        let json = flags.take("json")?;
        let quick = flags.take_or("quick", false)?;
        flags.finish()?;
        Ok(Self {
            scale,
            seeds,
            json,
            quick,
        })
    }
}

/// Loads the dataset for a paper name at the requested scale.
pub fn dataset_for(name: DatasetName, scale: Scale, seed: u64) -> Dataset {
    let name = match scale {
        Scale::Mini => name.mini(),
        Scale::Paper => name,
    };
    generate(&spec(name), seed)
}

/// The training schedule for a scale.
pub fn train_cfg(opts: &HarnessOpts, seed: u64) -> TrainConfig {
    let mut cfg = match opts.scale {
        Scale::Mini => TrainConfig::mini(seed),
        Scale::Paper => TrainConfig::paper(seed),
    };
    if opts.quick {
        cfg.rounds = cfg.rounds.min(8);
        cfg.patience = cfg.rounds;
        cfg.eval_every = 2;
    }
    cfg
}

/// The eight rows of the paper's Table 4 in order.
pub fn table4_rows() -> Vec<Strategy> {
    let mut rows: Vec<Strategy> = fedomd_federated::baselines::ALL_BASELINES
        .into_iter()
        .map(Strategy::Baseline)
        .collect();
    rows.push(Strategy::FedOmd(FedOmdConfig::paper()));
    rows
}

/// Runs one table row on a prepared federation over the in-process
/// channel, reporting the round milestones to `obs`.
pub fn run_row(
    row: &Strategy,
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    obs: &mut dyn RoundObserver,
) -> RunResult {
    let chan = &mut InProcChannel::new();
    fedomd_federated::run(
        clients,
        n_classes,
        cfg,
        row,
        chan,
        obs,
        Persistence::default(),
    )
}

/// The federation cut for a scale: the paper's 1 % label rate at paper
/// scale, the scale-adjusted 5 % at mini scale (see `SplitRatios::mini`).
pub fn fed_cfg(opts: &HarnessOpts, m: usize, resolution: f64, seed: u64) -> FederationConfig {
    let ratios = match opts.scale {
        Scale::Mini => fedomd_graph::SplitRatios::mini(),
        Scale::Paper => fedomd_graph::SplitRatios::paper(),
    };
    FederationConfig {
        n_parties: m,
        resolution,
        ratios,
        seed,
    }
}

/// Runs `algo` across all seeds on `(dataset, m, resolution)` and returns
/// the accuracy summary in percent.
pub fn seeded_cell(
    row: &Strategy,
    name: DatasetName,
    m: usize,
    resolution: f64,
    opts: &HarnessOpts,
) -> Summary {
    let accs: Vec<f64> = opts
        .seeds
        .iter()
        .map(|&seed| {
            let ds = dataset_for(name, opts.scale, seed);
            let clients = setup_federation(&ds, &fed_cfg(opts, m, resolution, seed));
            let cfg = train_cfg(opts, seed);
            100.0 * run_row(row, &clients, ds.n_classes, &cfg, &mut NullObserver).test_acc
        })
        .collect();
    mean_std(&accs)
}

/// Writes the record to `--json` if requested and always prints a pointer.
pub fn emit(record: &ExperimentRecord, opts: &HarnessOpts) {
    if let Some(path) = &opts.json {
        std::fs::write(path, record.to_json()).expect("write json record");
        println!("\n[json written to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> HarnessOpts {
        HarnessOpts::from_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn default_opts() {
        let o = args(&[]);
        assert_eq!(o.scale, Scale::Mini);
        assert_eq!(o.seeds, vec![0, 1, 2]);
        assert!(o.json.is_none());
        assert!(!o.quick);
    }

    #[test]
    fn paper_scale_uses_five_seeds() {
        let o = args(&["--scale", "paper"]);
        assert_eq!(o.scale, Scale::Paper);
        assert_eq!(o.seeds.len(), 5);
    }

    #[test]
    fn explicit_flags() {
        let o = args(&["--seeds", "2", "--json", "/tmp/x.json", "--quick"]);
        assert_eq!(o.seeds, vec![0, 1]);
        assert!(o.quick);
        assert_eq!(o.json.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
    }

    #[test]
    #[should_panic(expected = "unknown flag --nope")]
    fn unknown_flag_rejected() {
        let _ = args(&["--nope", "1"]);
    }

    #[test]
    fn table4_has_eight_rows_ending_in_fedomd() {
        let rows = table4_rows();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows.last().expect("non-empty").name(), "FedOMD");
    }

    #[test]
    fn quick_cfg_clamps_rounds() {
        let o = args(&["--quick"]);
        let cfg = train_cfg(&o, 0);
        assert!(cfg.rounds <= 8);
    }
}
