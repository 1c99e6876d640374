//! Every algorithm the paper compares (seven baselines + FedOMD) runs end
//! to end on the same federation and produces sane results.

use fedomd_core::{FedOmdConfig, FedRun};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::baselines::{run_baseline, Baseline, ALL_BASELINES};
use fedomd_federated::{setup_federation, ClientData, FederationConfig, RunResult, TrainConfig};
use fedomd_transport::{FaultConfig, SimNetChannel};

fn run_fedomd(
    clients: &[ClientData],
    n_classes: usize,
    cfg: &TrainConfig,
    omd: &FedOmdConfig,
) -> RunResult {
    FedRun::new(clients, n_classes)
        .train(cfg.clone())
        .omd(*omd)
        .run()
}

fn quick() -> (Vec<ClientData>, usize, TrainConfig) {
    let ds = generate(&spec(DatasetName::CoraMini), 0);
    let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
    let cfg = TrainConfig {
        rounds: 12,
        patience: 12,
        eval_every: 2,
        ..TrainConfig::mini(0)
    };
    (clients, ds.n_classes, cfg)
}

#[test]
fn all_eight_algorithms_run_and_report_sane_metrics() {
    let (clients, k, cfg) = quick();
    let mut results = Vec::new();
    for b in ALL_BASELINES {
        results.push(run_baseline(b, &clients, k, &cfg));
    }
    results.push(run_fedomd(&clients, k, &cfg, &FedOmdConfig::paper()));

    assert_eq!(results.len(), 8);
    for r in &results {
        assert!(
            r.test_acc.is_finite(),
            "{}: non-finite accuracy",
            r.algorithm
        );
        assert!(
            (0.0..=1.0).contains(&r.test_acc),
            "{}: accuracy out of range",
            r.algorithm
        );
        assert!(!r.history.is_empty(), "{}: empty history", r.algorithm);
        for h in &r.history {
            assert!(h.train_loss.is_finite(), "{}: non-finite loss", r.algorithm);
        }
    }
    // Names are distinct and match the table labels.
    let names: std::collections::BTreeSet<_> =
        results.iter().map(|r| r.algorithm.as_str()).collect();
    assert_eq!(names.len(), 8);
    assert!(names.contains("FedOMD"));
    assert!(names.contains("FedSage+"));
}

#[test]
fn traffic_profile_matches_algorithm_class() {
    let (clients, k, cfg) = quick();
    // LocGCN is isolated: zero traffic.
    let loc = run_baseline(Baseline::LocGcn, &clients, k, &cfg);
    assert_eq!(loc.comms.total_bytes(), 0, "LocGCN must not communicate");

    // SCAFFOLD ships weights + control variates: about twice FedMLP.
    let mlp = run_baseline(Baseline::FedMlp, &clients, k, &cfg);
    let sca = run_baseline(Baseline::Scaffold, &clients, k, &cfg);
    let per_round_mlp = mlp.comms.uplink_bytes as f64 / mlp.comms.rounds as f64;
    let per_round_sca = sca.comms.uplink_bytes as f64 / sca.comms.rounds as f64;
    let ratio = per_round_sca / per_round_mlp;
    assert!(
        (1.8..=2.2).contains(&ratio),
        "SCAFFOLD/FedMLP uplink ratio {ratio}"
    );

    // FedOMD ships weights + statistics; statistics must be a small slice.
    let omd = run_fedomd(&clients, k, &cfg, &FedOmdConfig::paper());
    assert!(omd.comms.stats_uplink_bytes > 0);
    assert!(
        omd.comms.stats_fraction() < 0.2,
        "stats fraction {}",
        omd.comms.stats_fraction()
    );
}

#[test]
fn graph_models_beat_the_mlp_family_on_homophilous_data() {
    // The paper's qualitative expectation: structure-aware models dominate
    // the structure-blind MLP family on homophilous graphs. Compared at the
    // best-of-both to keep the assertion robust at mini scale.
    let ds = generate(&spec(DatasetName::PhotoMini), 0);
    let clients = setup_federation(&ds, &FederationConfig::mini(3, 0));
    let cfg = TrainConfig {
        rounds: 60,
        patience: 40,
        ..TrainConfig::mini(0)
    };
    let gcn = run_baseline(Baseline::FedGcn, &clients, ds.n_classes, &cfg).test_acc;
    let loc = run_baseline(Baseline::LocGcn, &clients, ds.n_classes, &cfg).test_acc;
    let mlp = run_baseline(Baseline::FedMlp, &clients, ds.n_classes, &cfg).test_acc;
    assert!(
        gcn.max(loc) > mlp - 0.05,
        "graph models ({gcn:.3}/{loc:.3}) collapsed below MLP ({mlp:.3})"
    );
}

#[test]
fn scaffold_fedlit_and_fedsage_degrade_gracefully_on_a_lossy_channel() {
    // SCAFFOLD, FedLIT and FedSage+ run on the one round, so a lossy
    // channel drops their frames like anyone's and the run carries on.
    //
    // Each frame is lost with probability 0.25 (one attempt, no retry). A
    // run that drops nothing sends exactly its fault-free frames, at least
    // 12 rounds × 3 clients × weights up and model down = 72, so with
    // independent per-frame fates "nothing dropped" has probability at
    // most 0.75^72 ≈ 1e-9 per algorithm.
    let (clients, k, cfg) = quick();
    for which in [Baseline::Scaffold, Baseline::FedLit, Baseline::FedSagePlus] {
        let mut chan = SimNetChannel::new(FaultConfig {
            seed: 11,
            drop_prob: 0.25,
            max_retries: 0,
            ..Default::default()
        });
        let r = FedRun::new(&clients, k)
            .train(cfg.clone())
            .baseline(which)
            .channel(&mut chan)
            .run();
        assert_eq!(r.algorithm, which.name());
        assert!(
            r.comms.dropped_messages > 0,
            "{}: nothing dropped",
            r.algorithm
        );
        assert!(
            r.test_acc.is_finite(),
            "{}: non-finite accuracy",
            r.algorithm
        );
        for h in &r.history {
            assert!(h.train_loss.is_finite(), "{}: non-finite loss", r.algorithm);
        }
    }
}
