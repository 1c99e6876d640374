//! Golden guarantees of the telemetry layer (DESIGN.md §10): observers are
//! pure sinks — attaching any observer yields bit-identical results to the
//! zero-cost `NullObserver` — and the JSONL trace is parseable line by
//! line and covers every executed round.

use fedomd_core::{FedOmdConfig, FedRun, RunConfig};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{
    run, setup_federation, Baseline, ClientData, FederationConfig, Persistence, RunResult,
    Strategy, TrainConfig,
};
use fedomd_jsonio::Json;
use fedomd_telemetry::{JsonlObserver, MemoryObserver, NullObserver};
use fedomd_transport::{FaultConfig, InProcChannel, SimNetChannel};

fn mini_setup(seed: u64) -> (Vec<ClientData>, usize) {
    let ds = generate(&spec(DatasetName::CoraMini), seed);
    let clients = setup_federation(&ds, &FederationConfig::mini(3, seed));
    (clients, ds.n_classes)
}

fn short_cfg(seed: u64, rounds: usize) -> TrainConfig {
    TrainConfig {
        rounds,
        patience: rounds,
        ..TrainConfig::mini(seed)
    }
}

/// Everything an observer must not be able to change.
fn assert_same_run(a: &RunResult, b: &RunResult) {
    assert_eq!(a.algorithm, b.algorithm);
    assert_eq!(a.test_acc, b.test_acc, "test accuracy diverged");
    assert_eq!(a.val_acc, b.val_acc, "val accuracy diverged");
    assert_eq!(a.best_round, b.best_round);
    assert_eq!(a.history, b.history, "evaluation history diverged");
    assert_eq!(a.comms, b.comms, "comms accounting diverged");
}

#[test]
fn null_observer_run_is_bit_identical_to_the_builder() {
    let (clients, n_classes) = mini_setup(0);
    let cfg = short_cfg(0, 6);
    let omd = FedOmdConfig::paper();
    let baseline = FedRun::new(&clients, n_classes)
        .train(cfg.clone())
        .omd(omd)
        .run();
    let nulled = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::FedOmd(omd),
        &mut InProcChannel::new(),
        &mut NullObserver,
        Persistence::default(),
    );
    assert_same_run(&baseline, &nulled);
}

#[test]
fn any_observer_is_a_pure_sink() {
    let (clients, n_classes) = mini_setup(1);
    let cfg = short_cfg(1, 5);
    let omd = FedOmdConfig::paper();
    let baseline = FedRun::new(&clients, n_classes)
        .train(cfg.clone())
        .omd(omd)
        .run();

    let mut mem = MemoryObserver::new();
    let observed = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::FedOmd(omd),
        &mut InProcChannel::new(),
        &mut mem,
        Persistence::default(),
    );
    assert_same_run(&baseline, &observed);
    assert!(mem.count("local_step_done") > 0);

    let mut jsonl = JsonlObserver::new(Vec::new());
    let traced = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::FedOmd(omd),
        &mut InProcChannel::new(),
        &mut jsonl,
        Persistence::default(),
    );
    assert_same_run(&baseline, &traced);
}

#[test]
fn observers_do_not_perturb_a_lossy_channel_run() {
    let (clients, n_classes) = mini_setup(2);
    let cfg = short_cfg(2, 5);
    let omd = FedOmdConfig::paper();
    let faults = FaultConfig {
        seed: 7,
        drop_prob: 0.2,
        max_retries: 1,
        ..Default::default()
    };
    let baseline = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::FedOmd(omd),
        &mut SimNetChannel::new(faults.clone()),
        &mut NullObserver,
        Persistence::default(),
    );
    let mut mem = MemoryObserver::new();
    let observed = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::FedOmd(omd),
        &mut SimNetChannel::new(faults),
        &mut mem,
        Persistence::default(),
    );
    assert_same_run(&baseline, &observed);
    // The same fault stream replays, so the trace must agree with the
    // transport's own accounting.
    assert_eq!(
        mem.count("frame_dropped") as u64,
        baseline.comms.dropped_messages,
        "FrameDropped events must match the transport drop counter"
    );
}

#[test]
fn fedrun_builder_matches_the_raw_generic_loop() {
    let (clients, n_classes) = mini_setup(3);
    let cfg = short_cfg(3, 4);
    let opts = Baseline::FedGcn;
    let raw = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::Baseline(opts),
        &mut InProcChannel::new(),
        &mut NullObserver,
        Persistence::default(),
    );
    let built = FedRun::new(&clients, n_classes)
        .config(RunConfig::mini(3).with_train(cfg))
        .baseline(opts)
        .run();
    assert_same_run(&raw, &built);
}

#[test]
fn jsonl_trace_parses_and_covers_every_round() {
    let (clients, n_classes) = mini_setup(4);
    let rounds = 6;
    let cfg = short_cfg(4, rounds);
    let mut jsonl = JsonlObserver::new(Vec::new());
    let result = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::FedOmd(FedOmdConfig::paper()),
        &mut InProcChannel::new(),
        &mut jsonl,
        Persistence::default(),
    );

    let text = String::from_utf8(jsonl.into_inner()).expect("trace is utf-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());

    let mut kinds = Vec::new();
    let mut rounds_started = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("line {i} not JSON ({e}): {line}"));
        let kind = json
            .get("event")
            .and_then(|k| k.as_str())
            .unwrap_or_else(|| panic!("line {i} lacks an event tag"))
            .to_string();
        let seq = json.get("seq").and_then(|s| s.as_usize());
        assert_eq!(seq, Some(i), "seq must be dense and monotone");
        if kind == "round_started" {
            rounds_started.push(json.get("round").and_then(|r| r.as_u64()).unwrap());
        }
        kinds.push(kind);
    }

    assert_eq!(kinds.first().map(String::as_str), Some("run_started"));
    assert_eq!(kinds.last().map(String::as_str), Some("run_finished"));
    let executed = result.comms.rounds;
    assert_eq!(
        rounds_started,
        (0..executed).collect::<Vec<_>>(),
        "every executed round must open with round_started"
    );
    let evals = kinds.iter().filter(|k| k.as_str() == "eval_done").count();
    assert_eq!(evals, result.history.len(), "one eval_done per evaluation");
    assert!(kinds.iter().any(|k| k == "stats_round1_done"));
    assert!(kinds.iter().any(|k| k == "stats_round2_done"));
    assert!(kinds.iter().any(|k| k == "aggregation_done"));
    assert!(kinds.iter().any(|k| k == "local_step_done"));
    assert!(kinds.iter().any(|k| k == "phase_done"));
    assert!(kinds.iter().any(|k| k == "frame_sent"));
}

#[test]
fn early_stop_is_reported_as_an_event() {
    let (clients, n_classes) = mini_setup(5);
    // Tiny patience with a generous round cap: validation accuracy will
    // fail to improve long before 60 rounds elapse.
    let cfg = TrainConfig {
        rounds: 60,
        patience: 2,
        eval_every: 1,
        ..TrainConfig::mini(5)
    };
    let mut mem = MemoryObserver::new();
    let result = run(
        &clients,
        n_classes,
        &cfg,
        &Strategy::FedOmd(FedOmdConfig::paper()),
        &mut InProcChannel::new(),
        &mut mem,
        Persistence::default(),
    );
    if (result.comms.rounds as usize) < cfg.rounds {
        assert_eq!(mem.count("early_stopped"), 1);
    } else {
        assert_eq!(mem.count("early_stopped"), 0);
    }
    assert_eq!(mem.count("run_finished"), 1);
}
