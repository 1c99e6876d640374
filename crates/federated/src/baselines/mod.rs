//! The seven baselines of the paper's Tables 4/5, all exposed through the
//! uniform entry point [`run_baseline`].

pub mod fedlit;
pub mod fedsage;
pub mod scaffold;

use crate::client::ClientData;
use crate::config::{RunResult, TrainConfig};
use crate::engine::{run, GenericOpts, ModelKind, Persistence, Strategy};
use fedomd_telemetry::{NullObserver, RoundObserver};
use fedomd_transport::InProcChannel;

/// Every baseline algorithm (FedOMD itself lives in `fedomd-core`).
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

    /// The [`Strategy::FedAvg`] options of the FedAvg-family baselines,
    /// `None` for the bespoke loops (SCAFFOLD, FedSage+, FedLIT). Baselines
    /// with options run on the shared round ([`crate::engine::run`]) and
    /// therefore support run checkpoint/resume.
    pub fn generic_opts(self) -> Option<GenericOpts> {
        Some(match self {
            Baseline::FedMlp => GenericOpts {
                name: "FedMLP",
                model: ModelKind::Mlp,
                aggregate: true,
                prox_mu: 0.0,
            },
            Baseline::FedProx => GenericOpts {
                name: "FedProx",
                model: ModelKind::Mlp,
                aggregate: true,
                prox_mu: 0.01,
            },
            Baseline::LocGcn => GenericOpts {
                name: "LocGCN",
                model: ModelKind::Gcn,
                aggregate: false,
                prox_mu: 0.0,
            },
            Baseline::FedGcn => GenericOpts {
                name: "FedGCN",
                model: ModelKind::Gcn,
                aggregate: true,
                prox_mu: 0.0,
            },
            Baseline::Scaffold | Baseline::FedSagePlus | Baseline::FedLit => return None,
        })
    }

    /// The baseline-specific training-schedule adjustment. FedProx's
    /// proximal term only acts once local weights drift from the round's
    /// global snapshot; at one local epoch per round it is identically
    /// zero, so FedProx's own recipe (Li et al.) gets at least two.
    pub fn adjust_config(self, cfg: &TrainConfig) -> TrainConfig {
        if self == Baseline::FedProx {
            TrainConfig {
                local_epochs: cfg.local_epochs.max(2),
                ..cfg.clone()
            }
        } else {
            cfg.clone()
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

/// Runs one baseline end to end, reporting round milestones to `obs`.
///
/// The FedAvg-family baselines run on the shared round over the default
/// in-process channel and report full frame-level telemetry; the bespoke
/// loops (SCAFFOLD, FedSage+, FedLIT) report the round lifecycle, local
/// steps, phases, and aggregation milestones.
pub fn run_baseline_observed(
    which: Baseline,
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    obs: &mut dyn RoundObserver,
) -> RunResult {
    if let Some(opts) = which.generic_opts() {
        return run(
            clients,
            n_classes,
            &which.adjust_config(cfg),
            &Strategy::FedAvg(opts),
            &mut InProcChannel::new(),
            obs,
            Persistence::default(),
        );
    }
    match which {
        Baseline::Scaffold => scaffold::run_scaffold_observed(clients, n_classes, cfg, obs),
        Baseline::FedSagePlus => fedsage::run_fedsage_plus_observed(clients, n_classes, cfg, obs),
        Baseline::FedLit => fedlit::run_fedlit_observed(clients, n_classes, cfg, obs),
        #[expect(
            clippy::unreachable,
            reason = "the `generic_opts` guard above returned for every FedAvg-family \
                      variant; only the three bespoke loops reach here"
        )]
        Baseline::FedMlp | Baseline::FedProx | Baseline::LocGcn | Baseline::FedGcn => {
            unreachable!("FedAvg-family baselines handled above")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn generic_opts_cover_exactly_the_fedavg_family() {
        for b in ALL_BASELINES {
            match b {
                Baseline::Scaffold | Baseline::FedSagePlus | Baseline::FedLit => {
                    assert!(b.generic_opts().is_none(), "{:?} is bespoke", b)
                }
                _ => assert_eq!(b.generic_opts().expect("generic").name, b.name()),
            }
        }
    }

    #[test]
    fn only_fedprox_adjusts_the_schedule() {
        let cfg = TrainConfig::mini(0);
        assert_eq!(Baseline::FedProx.adjust_config(&cfg).local_epochs, 2);
        assert_eq!(
            Baseline::FedGcn.adjust_config(&cfg).local_epochs,
            cfg.local_epochs
        );
    }
}
