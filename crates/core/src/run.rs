//! The unified run entry point: [`FedRun`], one builder for every
//! algorithm, channel and telemetry sink, so call sites compose exactly
//! the pieces they need:
//!
//! ```no_run
//! use fedomd_core::{FedRun, RunConfig};
//! use fedomd_data::{generate, spec, DatasetName};
//! use fedomd_federated::{setup_federation, FederationConfig};
//! use fedomd_telemetry::ConsoleObserver;
//!
//! let ds = generate(&spec(DatasetName::CoraMini), 0);
//! let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
//! let mut console = ConsoleObserver::stderr();
//! let result = FedRun::new(&clients, ds.n_classes)
//!     .config(RunConfig::mini(0))
//!     .observer(&mut console)
//!     .run();
//! println!("test accuracy: {:.2}%", 100.0 * result.test_acc);
//! ```
//!
//! Omitted pieces default to the fault-free [`InProcChannel`] and the
//! zero-cost [`fedomd_telemetry::NullObserver`]; observers are pure sinks,
//! so attaching one never changes the numbers (golden-tested in
//! `tests/telemetry_golden.rs`).
//!
//! Runs can additionally be made crash-safe: [`FedRun::checkpoint_every`]
//! snapshots the full run state every `n` rounds (atomically, via
//! [`FileCheckpointer`]), and [`FedRun::resume_from`] picks a killed run
//! back up from its latest snapshot — bit-identical to the uninterrupted
//! run (golden-tested in `tests/checkpoint_golden.rs`).

use std::path::{Path, PathBuf};

use fedomd_federated::{
    Baseline, ClientData, CohortConfig, FedOmdConfig, Persistence, RunResult, RunSpec, Strategy,
    TrainConfig,
};
use fedomd_telemetry::{NullObserver, RoundObserver};
use fedomd_transport::{Channel, InProcChannel};

use crate::run_checkpoint::{CheckpointError, FileCheckpointer, RunCheckpoint};

/// The complete configuration of one federated run: the training schedule
/// shared by every algorithm plus FedOMD's objective hyper-parameters.
///
/// Baselines read only [`TrainConfig`] and FedOMD reads both, but call
/// sites should not have to care, so this type carries both and forwards
/// the common presets.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Rounds, learning rate, patience, hidden width, seed (all
    /// algorithms).
    pub train: TrainConfig,
    /// α/β weights, moment order, ablation switches (FedOMD only; ignored
    /// by baselines).
    pub omd: FedOmdConfig,
}

impl RunConfig {
    /// Paper-faithful settings (1000 rounds, patience 200, calibrated
    /// FedOMD objective).
    pub fn paper(seed: u64) -> Self {
        Self {
            train: TrainConfig::paper(seed),
            omd: FedOmdConfig::paper(),
        }
    }

    /// Fast settings for the mini datasets.
    pub fn mini(seed: u64) -> Self {
        Self {
            train: TrainConfig::mini(seed),
            omd: FedOmdConfig::paper(),
        }
    }

    /// Replaces the training schedule.
    pub fn with_train(mut self, train: TrainConfig) -> Self {
        self.train = train;
        self
    }

    /// Replaces the FedOMD objective parameters.
    pub fn with_omd(mut self, omd: FedOmdConfig) -> Self {
        self.omd = omd;
        self
    }

    /// Caps the number of communication rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.train.rounds = rounds;
        self
    }

    /// Sets the early-stopping patience in rounds.
    pub fn with_patience(mut self, patience: usize) -> Self {
        self.train.patience = patience;
        self
    }

    /// Sets the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.train.seed = seed;
        self
    }

    /// Sets the per-round client sampling policy (default: full
    /// participation).
    pub fn with_cohort(mut self, cohort: CohortConfig) -> Self {
        self.train.cohort = cohort;
        self
    }
}

/// Builder for one federated run.
///
/// Composes four independent axes — algorithm, configuration, transport
/// channel, telemetry observer. Construct with [`FedRun::new`], chain
/// setters, finish with [`FedRun::run`].
pub struct FedRun<'a> {
    clients: &'a [ClientData],
    n_classes: usize,
    config: RunConfig,
    /// The baseline to run, `None` for FedOMD.
    baseline: Option<Baseline>,
    channel: Option<&'a mut dyn Channel>,
    observer: Option<&'a mut dyn RoundObserver>,
    ckpt_every: usize,
    ckpt_path: Option<PathBuf>,
    resume: Option<RunCheckpoint>,
}

impl<'a> FedRun<'a> {
    /// Starts a FedOMD run over `clients` with [`RunConfig::paper`]
    /// defaults (seed 0), the in-process channel, and no telemetry.
    pub fn new(clients: &'a [ClientData], n_classes: usize) -> Self {
        Self {
            clients,
            n_classes,
            config: RunConfig::paper(0),
            baseline: None,
            channel: None,
            observer: None,
            ckpt_every: 0,
            ckpt_path: None,
            resume: None,
        }
    }

    /// Replaces the full configuration.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces only the training schedule.
    pub fn train(mut self, train: TrainConfig) -> Self {
        self.config.train = train;
        self
    }

    /// Replaces only the FedOMD objective parameters.
    pub fn omd(mut self, omd: FedOmdConfig) -> Self {
        self.config.omd = omd;
        self
    }

    /// Runs one of the paper's baselines instead of FedOMD.
    pub fn baseline(mut self, which: Baseline) -> Self {
        self.baseline = Some(which);
        self
    }

    /// Routes all exchanges over `chan` (default: fault-free
    /// [`InProcChannel`]).
    pub fn channel(mut self, chan: &'a mut dyn Channel) -> Self {
        self.channel = Some(chan);
        self
    }

    /// Reports every round milestone to `obs` (default: the zero-cost
    /// [`NullObserver`]).
    pub fn observer(mut self, obs: &'a mut dyn RoundObserver) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Snapshots the full run state to `path` every `every` rounds
    /// (atomic overwrite of the same file). `every == 0` disables
    /// checkpointing.
    pub fn checkpoint_every(mut self, every: usize, path: impl Into<PathBuf>) -> Self {
        self.ckpt_every = every;
        self.ckpt_path = Some(path.into());
        self
    }

    /// Resumes from the snapshot at `path`. A missing file is
    /// [`CheckpointError::Io`]; a truncated or corrupt one is
    /// [`CheckpointError::Parse`] — a half-written checkpoint is never
    /// silently restored.
    pub fn resume_from(self, path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Ok(self.resume(RunCheckpoint::load(path)?))
    }

    /// Resumes from an already-loaded checkpoint.
    pub fn resume(mut self, ckpt: RunCheckpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Executes the run to completion.
    ///
    /// # Panics
    /// Panics when a resume checkpoint's run spec differs from this run's
    /// in any key but `rounds` and `patience`, naming the key: restoring
    /// foreign state would produce silently wrong results.
    pub fn run(self) -> RunResult {
        let mut default_chan = InProcChannel::new();
        let mut default_obs = NullObserver;
        let chan: &mut dyn Channel = self.channel.unwrap_or(&mut default_chan);
        let obs: &mut dyn RoundObserver = self.observer.unwrap_or(&mut default_obs);
        let strategy = match self.baseline {
            Some(which) => Strategy::Baseline(which),
            None => Strategy::FedOmd(self.config.omd),
        };
        let spec = RunSpec {
            strategy,
            parties: self.clients.len(),
            dataset: None,
            train: self.config.train.clone(),
        }
        .flags();
        let resume = self.resume.map(|ckpt| {
            #[expect(clippy::panic, reason = "documented contract (see `# Panics`)")]
            if let Some(m) = spec.mismatch(&ckpt.spec) {
                panic!("resume: the checkpoint is another run's: {m} (this run vs the checkpoint)");
            }
            ckpt.state
        });
        let mut sink = self
            .ckpt_path
            .filter(|_| self.ckpt_every > 0)
            .map(|path| FileCheckpointer::new(path, self.ckpt_every, spec));
        let persist = Persistence {
            resume,
            sink: sink.as_mut().map(|s| s as _),
        };
        fedomd_federated::run(
            self.clients,
            self.n_classes,
            &self.config.train,
            &strategy,
            chan,
            obs,
            persist,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedomd_federated::{setup_federation, FederationConfig};
    use fedomd_telemetry::MemoryObserver;

    use fedomd_data::{generate, spec, DatasetName};

    fn mini_setup() -> (Vec<ClientData>, usize) {
        let ds = generate(&spec(DatasetName::CoraMini), 7);
        let clients = setup_federation(&ds, &FederationConfig::mini(2, 7));
        (clients, ds.n_classes)
    }

    #[test]
    fn builder_matches_the_raw_loop() {
        let (clients, n_classes) = mini_setup();
        let cfg = RunConfig::mini(7).with_rounds(6);
        let a = FedRun::new(&clients, n_classes).config(cfg.clone()).run();
        let b = fedomd_federated::run(
            &clients,
            n_classes,
            &cfg.train,
            &Strategy::FedOmd(cfg.omd),
            &mut InProcChannel::new(),
            &mut NullObserver,
            Persistence::default(),
        );
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.val_acc, b.val_acc);
        assert_eq!(a.comms.uplink_bytes, b.comms.uplink_bytes);
        assert_eq!(a.comms.downlink_bytes, b.comms.downlink_bytes);
    }

    #[test]
    fn builder_runs_a_baseline_with_observer() {
        let (clients, n_classes) = mini_setup();
        let mut mem = MemoryObserver::new();
        let r = FedRun::new(&clients, n_classes)
            .config(RunConfig::mini(7).with_rounds(4))
            .baseline(Baseline::FedMlp)
            .observer(&mut mem)
            .run();
        assert_eq!(r.algorithm, "FedMLP");
        assert_eq!(mem.count("run_started"), 1);
        assert_eq!(mem.count("round_started"), 4);
        assert_eq!(mem.count("run_finished"), 1);
    }

    /// A baseline's server tracks the global model as FedOMD's does: its
    /// checkpoint carries the model every client installed.
    #[test]
    fn a_fedavg_checkpoint_carries_the_global_model() {
        let (clients, n_classes) = mini_setup();
        let path = std::env::temp_dir().join(format!(
            "fedomd-run-fedavg-global-{}.ckpt",
            std::process::id()
        ));
        FedRun::new(&clients, n_classes)
            .config(RunConfig::mini(7).with_rounds(2))
            .baseline(Baseline::FedGcn)
            .checkpoint_every(2, &path)
            .run();
        let state = RunCheckpoint::load(&path).unwrap().state;
        let _ = std::fs::remove_file(&path);
        let global = state
            .global
            .expect("a FedAvg checkpoint carries the global model");
        assert_eq!(state.params.len(), clients.len());
        for params in &state.params {
            assert_eq!(params, &global);
        }
    }

    #[test]
    fn run_config_setters_compose() {
        let c = RunConfig::mini(3)
            .with_rounds(9)
            .with_patience(5)
            .with_seed(11)
            .with_cohort(CohortConfig::fraction(0.2, 4))
            .with_omd(FedOmdConfig::cmd_only());
        assert_eq!(c.train.rounds, 9);
        assert_eq!(c.train.patience, 5);
        assert_eq!(c.train.seed, 11);
        assert_eq!(c.train.cohort.sample_frac, 0.2);
        assert_eq!(c.train.cohort.seed, 4);
        assert!(!c.omd.use_ortho);
    }
}
