//! The seven baselines of the paper's Tables 4/5, each a
//! [`Strategy::Baseline`] of the one round ([`crate::engine::run`]) and
//! exposed through the uniform entry point [`run_baseline`]. The
//! algorithm-specific mechanisms live with the session: SCAFFOLD's control
//! variates in [`crate::session`], FedLIT's link-type clustering and
//! FedSage+'s neighbour generation in [`fedlit`] and [`fedsage`].

pub mod fedlit;
pub mod fedsage;

use crate::client::ClientData;
use crate::config::{RunResult, TrainConfig};
use crate::engine::{run, Persistence, Strategy};
use fedomd_telemetry::{NullObserver, RoundObserver};
use fedomd_transport::InProcChannel;

/// Every baseline algorithm (FedOMD is [`Strategy::FedOmd`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// 2-layer MLP + FedAvg.
    FedMlp,
    /// FedMLP + proximal term (Li et al.).
    FedProx,
    /// FedMLP + control variates (Karimireddy et al.).
    Scaffold,
    /// Isolated local 2-layer GCNs, accuracy averaged.
    LocGcn,
    /// 2-layer GCN + FedAvg.
    FedGcn,
    /// Local SAGE + missing-neighbour generation (Zhang et al.).
    FedSagePlus,
    /// Latent link-type clustering with per-type propagation (Xie et al.).
    FedLit,
}

/// All baselines in the paper's table order.
pub const ALL_BASELINES: [Baseline; 7] = [
    Baseline::FedMlp,
    Baseline::Scaffold,
    Baseline::FedProx,
    Baseline::LocGcn,
    Baseline::FedGcn,
    Baseline::FedLit,
    Baseline::FedSagePlus,
];

impl Baseline {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::FedMlp => "FedMLP",
            Baseline::FedProx => "FedProx",
            Baseline::Scaffold => "SCAFFOLD",
            Baseline::LocGcn => "LocGCN",
            Baseline::FedGcn => "FedGCN",
            Baseline::FedSagePlus => "FedSage+",
            Baseline::FedLit => "FedLIT",
        }
    }

    /// Parses a table name (`"FedMLP"`, `"fedsage+"`, ...).
    pub fn parse(s: &str) -> Option<Baseline> {
        Some(match s.to_ascii_lowercase().as_str() {
            "fedmlp" => Baseline::FedMlp,
            "fedprox" => Baseline::FedProx,
            "scaffold" => Baseline::Scaffold,
            "locgcn" => Baseline::LocGcn,
            "fedgcn" => Baseline::FedGcn,
            "fedsage+" | "fedsage" | "fedsageplus" => Baseline::FedSagePlus,
            "fedlit" => Baseline::FedLit,
            _ => return None,
        })
    }

    /// Local passes a round: `local_epochs`, at least one. FedProx's
    /// proximal term only acts once local weights drift from the round's
    /// starting model; at one pass a round it is identically zero, so
    /// FedProx's own recipe (Li et al.) gets at least two.
    pub fn passes(self, cfg: &TrainConfig) -> usize {
        let min = if self == Baseline::FedProx { 2 } else { 1 };
        cfg.local_epochs.max(min)
    }

    /// FedProx's proximal coefficient `μ`; 0 for every other baseline.
    pub fn prox_mu(self) -> f32 {
        if self == Baseline::FedProx {
            0.01
        } else {
            0.0
        }
    }
}

/// Runs one baseline end to end, without telemetry.
pub fn run_baseline(
    which: Baseline,
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
) -> RunResult {
    run_baseline_observed(which, clients, n_classes, cfg, &mut NullObserver)
}

/// Runs one baseline end to end over the default in-process channel,
/// reporting round milestones and frame-level telemetry to `obs`.
///
/// # Panics
/// Panics with no clients or an invalid cohort configuration.
pub fn run_baseline_observed(
    which: Baseline,
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    obs: &mut dyn RoundObserver,
) -> RunResult {
    run(
        clients,
        n_classes,
        cfg,
        &Strategy::Baseline(which),
        &mut InProcChannel::new(),
        obs,
        Persistence::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{setup_federation, FederationConfig};
    use crate::comms::CommsLog;
    use crate::config::CohortConfig;
    use fedomd_data::{generate, spec, DatasetName};
    use fedomd_telemetry::{MemoryObserver, RoundEvent, RoundObserver};
    use std::collections::BTreeSet;

    /// A 2-of-3 cohort trains only the sampled clients, every round, for
    /// SCAFFOLD, FedLIT and FedSage+ too.
    #[test]
    fn a_sampled_cohort_trains_only_its_members() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig {
            rounds: 4,
            patience: 4,
            eval_every: 1,
            cohort: CohortConfig::fraction(2.0 / 3.0, 5),
            ..TrainConfig::mini(0)
        };
        for which in [Baseline::Scaffold, Baseline::FedLit, Baseline::FedSagePlus] {
            let mut mem = MemoryObserver::new();
            let r = run_baseline_observed(which, &clients, ds.n_classes, &cfg, &mut mem);
            assert_eq!(r.history.len(), cfg.rounds, "{which:?}");
            let mut trained: Vec<BTreeSet<u32>> = Vec::new();
            for e in &mem.events {
                match e {
                    RoundEvent::RoundStarted { .. } => trained.push(BTreeSet::new()),
                    RoundEvent::LocalStepDone { client, .. } => {
                        trained.last_mut().expect("inside a round").insert(*client);
                    }
                    _ => {}
                }
            }
            assert_eq!(trained.len(), cfg.rounds, "{which:?}");
            for (round, got) in trained.iter().enumerate() {
                let cohort = cfg.cohort.sample(round as u64, clients.len());
                assert_eq!(cohort.len(), 2);
                let want: BTreeSet<u32> = cohort.iter().map(|&i| i as u32).collect();
                assert_eq!(got, &want, "{which:?} round {round}");
            }
        }
    }

    /// A fresh FedLIT or FedSage+ run reports its set-up exchange as
    /// frames before round 0, and its ledger is the fold of its trace.
    #[test]
    fn the_ledger_is_the_fold_of_the_trace_set_up_included() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig {
            rounds: 3,
            ..TrainConfig::mini(0)
        };
        for which in [Baseline::FedLit, Baseline::FedSagePlus] {
            let mut mem = MemoryObserver::new();
            let r = run_baseline_observed(which, &clients, ds.n_classes, &cfg, &mut mem);
            let mut folded = CommsLog::new();
            for e in &mem.events {
                folded.on_event(e);
            }
            assert_eq!(folded, r.comms, "{which:?}");
            let round_0 = mem
                .events
                .iter()
                .position(|e| matches!(e, RoundEvent::RoundStarted { .. }))
                .expect("round 0 ran");
            let mut set_up = CommsLog::new();
            for e in &mem.events[..round_0] {
                set_up.on_event(e);
            }
            assert!(set_up.uplink_bytes > 0, "{which:?}: no set-up uplink");
            assert!(set_up.downlink_bytes > 0, "{which:?}: no set-up downlink");
            // FedLIT's centroids are statistics; NeighGen is weights.
            let stats_only = set_up.stats_uplink_bytes == set_up.uplink_bytes;
            assert_eq!(stats_only, which == Baseline::FedLit, "{which:?}");
        }
    }

    #[test]
    fn scaffold_learns_above_chance() {
        let ds = generate(&spec(DatasetName::CoraMini), 0);
        let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
        let cfg = TrainConfig {
            rounds: 40,
            patience: 30,
            ..TrainConfig::mini(0)
        };
        let r = run_baseline(Baseline::Scaffold, &clients, ds.n_classes, &cfg);
        assert!(r.test_acc > 1.0 / ds.n_classes as f64, "acc {}", r.test_acc);
        assert!(r.test_acc.is_finite());
        assert!(r.comms.uplink_bytes > 0);
    }

    #[test]
    fn scaffold_is_deterministic() {
        let ds = generate(&spec(DatasetName::CoraMini), 1);
        let clients = setup_federation(&ds, &FederationConfig::mini(2, 1));
        let cfg = TrainConfig {
            rounds: 8,
            ..TrainConfig::mini(1)
        };
        let a = run_baseline(Baseline::Scaffold, &clients, ds.n_classes, &cfg);
        let b = run_baseline(Baseline::Scaffold, &clients, ds.n_classes, &cfg);
        assert_eq!(a.test_acc, b.test_acc);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(Baseline::FedSagePlus.name(), "FedSage+");
        assert_eq!(Baseline::Scaffold.name(), "SCAFFOLD");
        assert_eq!(ALL_BASELINES.len(), 7);
    }

    #[test]
    fn parse_roundtrips() {
        for b in ALL_BASELINES {
            assert_eq!(Baseline::parse(b.name()), Some(b), "{:?}", b);
        }
        assert_eq!(Baseline::parse("nope"), None);
    }

    #[test]
    fn only_fedprox_has_a_proximal_term_and_a_second_pass() {
        let cfg = TrainConfig::mini(0);
        for b in ALL_BASELINES {
            let (passes, mu) = if b == Baseline::FedProx {
                (2, 0.01)
            } else {
                (cfg.local_epochs, 0.0)
            };
            assert_eq!(b.passes(&cfg), passes, "{b:?}");
            assert_eq!(b.prox_mu(), mu, "{b:?}");
        }
        let idle = TrainConfig {
            local_epochs: 0,
            ..cfg
        };
        assert_eq!(Baseline::FedGcn.passes(&idle), 1);
    }
}
