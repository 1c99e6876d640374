//! Golden guarantees of the run checkpoint/resume subsystem (DESIGN.md
//! §11): a run killed at round `k` and resumed from its snapshot is
//! **bit-identical** — accuracy history, final parameters, optimizer
//! moments, comms accounting — to the same run left uninterrupted, on
//! both the fault-free in-process channel and the lossy simulated
//! network; and a half-written checkpoint is never loaded.

use fedomd_core::{CheckpointError, FedRun, RunCheckpoint, RunConfig};
use fedomd_data::{generate, spec, DatasetName};
use fedomd_federated::{
    setup_federation, Baseline, ClientData, FedOmdConfig, FederationConfig, OptimState, RunResult,
};
use fedomd_telemetry::{MemoryObserver, RoundEvent};
use fedomd_transport::{Channel, FaultConfig, InProcChannel, SimNetChannel};
use std::path::PathBuf;

fn mini_setup(seed: u64) -> (Vec<ClientData>, usize) {
    let ds = generate(&spec(DatasetName::CoraMini), seed);
    let clients = setup_federation(&ds, &FederationConfig::mini(3, seed));
    (clients, ds.n_classes)
}

fn cfg(seed: u64, rounds: usize) -> RunConfig {
    RunConfig::mini(seed)
        .with_rounds(rounds)
        .with_patience(rounds)
}

/// A per-test scratch directory (tests run in one process, so the process
/// id alone would collide).
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fedomd-ckpt-golden-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Bit-identity across everything a RunResult reports.
fn assert_same_run(a: &RunResult, b: &RunResult) {
    assert_eq!(a.algorithm, b.algorithm);
    assert_eq!(a.test_acc, b.test_acc, "test accuracy diverged");
    assert_eq!(a.val_acc, b.val_acc, "val accuracy diverged");
    assert_eq!(a.best_round, b.best_round, "best round diverged");
    assert_eq!(a.history, b.history, "evaluation history diverged");
    assert_eq!(a.comms, b.comms, "comms accounting diverged");
}

/// Loses each frame with probability 0.2: one attempt, no retry. A run
/// that drops nothing sends exactly its fault-free frames, so with
/// independent per-frame fates a "something was dropped" precondition
/// fails with probability 0.8^N for a leg of N fault-free frames:
/// - the SCAFFOLD leg (8 rounds × 3 clients × weights up and model down,
///   N = 48): 0.8^48 ≈ 2.2e-5;
/// - the FedOMD leg (8 rounds × 3 clients × 6 frames, N = 144):
///   0.8^144 ≈ 1e-14.
fn lossy() -> FaultConfig {
    FaultConfig {
        seed: 7,
        drop_prob: 0.2,
        max_retries: 0,
        ..Default::default()
    }
}

#[test]
fn fedomd_kill_and_resume_is_bit_identical_inproc() {
    let dir = scratch("fedomd-inproc");
    let (clients, n_classes) = mini_setup(0);
    let (rounds, k) = (10, 5);

    // The uninterrupted reference, snapshotting on the same cadence so its
    // final checkpoint file captures the final params and Adam state.
    let full_path = dir.join("full.ckpt");
    let uninterrupted = FedRun::new(&clients, n_classes)
        .config(cfg(0, rounds))
        .checkpoint_every(k, &full_path)
        .run();

    // "Kill" the run at round k: cap the round budget there.
    let kill_path = dir.join("killed.ckpt");
    let mut mem = MemoryObserver::new();
    FedRun::new(&clients, n_classes)
        .config(cfg(0, k))
        .checkpoint_every(k, &kill_path)
        .observer(&mut mem)
        .run();
    assert_eq!(mem.count("checkpoint_saved"), 1);
    assert_eq!(mem.count("resumed"), 0);

    // Resume with the full round budget.
    let resumed_path = dir.join("resumed.ckpt");
    let mut mem = MemoryObserver::new();
    let resumed = FedRun::new(&clients, n_classes)
        .config(cfg(0, rounds))
        .resume_from(&kill_path)
        .expect("load snapshot")
        .checkpoint_every(k, &resumed_path)
        .observer(&mut mem)
        .run();
    assert_eq!(mem.count("resumed"), 1);
    assert_eq!(mem.count("checkpoint_saved"), 1, "only round 2k saves here");

    assert_same_run(&uninterrupted, &resumed);

    // The final snapshots of both legs capture the complete run state —
    // client parameters, Adam moments, driver history, channel counters —
    // and must agree bit-for-bit.
    let a = RunCheckpoint::load(&full_path).expect("full leg snapshot");
    let b = RunCheckpoint::load(&resumed_path).expect("resumed leg snapshot");
    assert_eq!(a, b, "final run state diverged after resume");
    assert_eq!(a.state.next_round, rounds);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fedomd_kill_and_resume_is_bit_identical_on_a_lossy_channel() {
    let dir = scratch("fedomd-lossy");
    let (clients, n_classes) = mini_setup(2);
    let (rounds, k) = (8, 4);

    let full_path = dir.join("full.ckpt");
    let mut chan = SimNetChannel::new(lossy());
    let uninterrupted = FedRun::new(&clients, n_classes)
        .config(cfg(2, rounds))
        .channel(&mut chan)
        .checkpoint_every(k, &full_path)
        .run();
    assert!(
        uninterrupted.comms.dropped_messages > 0,
        "fault config must actually drop frames for this test to bite"
    );

    let kill_path = dir.join("killed.ckpt");
    let mut chan = SimNetChannel::new(lossy());
    FedRun::new(&clients, n_classes)
        .config(cfg(2, k))
        .channel(&mut chan)
        .checkpoint_every(k, &kill_path)
        .run();

    // The resumed leg starts from a *fresh* channel: each frame's faults
    // are keyed by the frame itself (round, link, kind), so the drop
    // pattern of rounds k.. replays exactly with no cursor to restore.
    let resumed_path = dir.join("resumed.ckpt");
    let mut chan = SimNetChannel::new(lossy());
    let resumed = FedRun::new(&clients, n_classes)
        .config(cfg(2, rounds))
        .channel(&mut chan)
        .resume_from(&kill_path)
        .expect("load snapshot")
        .checkpoint_every(k, &resumed_path)
        .run();

    assert_same_run(&uninterrupted, &resumed);
    let a = RunCheckpoint::load(&full_path).expect("full leg snapshot");
    let b = RunCheckpoint::load(&resumed_path).expect("resumed leg snapshot");
    assert_eq!(a, b, "final run state diverged after lossy resume");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generic_engine_kill_and_resume_is_bit_identical_on_a_lossy_channel() {
    let dir = scratch("fedgcn-lossy");
    let (clients, n_classes) = mini_setup(3);
    let (rounds, k) = (8, 4);
    let opts = Baseline::FedGcn;

    let full_path = dir.join("full.ckpt");
    let mut chan = SimNetChannel::new(lossy());
    let uninterrupted = FedRun::new(&clients, n_classes)
        .config(cfg(3, rounds))
        .baseline(opts)
        .channel(&mut chan)
        .checkpoint_every(k, &full_path)
        .run();

    let kill_path = dir.join("killed.ckpt");
    let mut chan = SimNetChannel::new(lossy());
    FedRun::new(&clients, n_classes)
        .config(cfg(3, k))
        .baseline(opts)
        .channel(&mut chan)
        .checkpoint_every(k, &kill_path)
        .run();

    let resumed_path = dir.join("resumed.ckpt");
    let mut chan = SimNetChannel::new(lossy());
    let resumed = FedRun::new(&clients, n_classes)
        .config(cfg(3, rounds))
        .baseline(opts)
        .channel(&mut chan)
        .resume_from(&kill_path)
        .expect("load snapshot")
        .checkpoint_every(k, &resumed_path)
        .run();

    assert_same_run(&uninterrupted, &resumed);
    let a = RunCheckpoint::load(&full_path).expect("full leg snapshot");
    let b = RunCheckpoint::load(&resumed_path).expect("resumed leg snapshot");
    assert_eq!(a, b, "final run state diverged after resume");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `which` for 8 rounds uninterrupted, and killed at round 4 then
/// resumed, each leg over a fresh `chan()`; asserts the two agree bit for
/// bit and returns the final snapshot and the resumed leg's events.
fn assert_baseline_resumes_bit_identically(
    which: Baseline,
    seed: u64,
    chan: &dyn Fn() -> Box<dyn Channel>,
) -> (RunCheckpoint, MemoryObserver) {
    let dir = scratch(&format!("{which:?}"));
    let (clients, n_classes) = mini_setup(seed);
    let (rounds, k) = (8, 4);
    let leg = |rounds: usize, path: &PathBuf, resume: Option<&PathBuf>| {
        let mut c = chan();
        let mut mem = MemoryObserver::new();
        let mut run = FedRun::new(&clients, n_classes)
            .config(cfg(seed, rounds))
            .baseline(which)
            .channel(c.as_mut())
            .observer(&mut mem);
        if let Some(from) = resume {
            run = run.resume_from(from).expect("load snapshot");
        }
        let result = run.checkpoint_every(k, path).run();
        (result, mem)
    };
    let full_path = dir.join("full.ckpt");
    let (uninterrupted, _) = leg(rounds, &full_path, None);
    let kill_path = dir.join("killed.ckpt");
    leg(k, &kill_path, None);
    let resumed_path = dir.join("resumed.ckpt");
    let (resumed, events) = leg(rounds, &resumed_path, Some(&kill_path));

    assert_same_run(&uninterrupted, &resumed);
    let a = RunCheckpoint::load(&full_path).expect("full leg snapshot");
    let b = RunCheckpoint::load(&resumed_path).expect("resumed leg snapshot");
    assert_eq!(a, b, "final run state diverged after resume");
    let _ = std::fs::remove_dir_all(&dir);
    (a, events)
}

#[test]
fn scaffold_kill_and_resume_is_bit_identical_on_a_lossy_channel() {
    // SCAFFOLD is the one baseline with per-client state beyond Adam: its
    // SGD velocity and both control variates ride in the snapshot.
    let (a, _) = assert_baseline_resumes_bit_identically(Baseline::Scaffold, 8, &|| {
        Box::new(SimNetChannel::new(lossy()))
    });
    assert!(a.state.driver.comms.dropped_messages > 0, "nothing dropped");
    for optim in &a.state.optim {
        let OptimState::Scaffold {
            velocity,
            local,
            global,
        } = optim
        else {
            panic!("a SCAFFOLD snapshot carries control variates");
        };
        assert!(!velocity.is_empty());
        assert_eq!(local.len(), global.len());
    }
}

#[test]
fn fedsage_kill_and_resume_is_bit_identical_inproc() {
    // FedSage+'s NeighGen set-up is re-derived on resume from (seed,
    // shards), and its bytes are charged once: the resumed leg times its
    // set-up again but reports none of its frames.
    let (a, resumed) = assert_baseline_resumes_bit_identically(Baseline::FedSagePlus, 9, &|| {
        Box::new(InProcChannel::new())
    });
    assert_eq!(a.state.next_round, 8);
    let round_4 = resumed
        .events
        .iter()
        .position(|e| matches!(e, RoundEvent::RoundStarted { .. }))
        .expect("the resumed leg ran a round");
    let set_up = &resumed.events[..round_4];
    assert!(set_up
        .iter()
        .any(|e| matches!(e, RoundEvent::PhaseDone { .. })));
    assert!(
        !set_up
            .iter()
            .any(|e| matches!(e, RoundEvent::FrameSent { .. })),
        "the resumed leg reported its set-up frames again"
    );
}

#[test]
fn resuming_an_early_stopped_run_finishes_without_extra_rounds() {
    let dir = scratch("early-stop");
    let (clients, n_classes) = mini_setup(5);
    // Tiny patience with a generous cap: the run early-stops well before
    // 60 rounds, and the per-round snapshot captures the stopped state.
    let config = RunConfig::mini(5).with_rounds(60).with_patience(2);
    let path = dir.join("run.ckpt");
    let stopped = FedRun::new(&clients, n_classes)
        .config(config.clone())
        .checkpoint_every(1, &path)
        .run();
    assert!(
        (stopped.comms.rounds as usize) < 60,
        "run did not early-stop; tighten the schedule"
    );

    let mut mem = MemoryObserver::new();
    let resumed = FedRun::new(&clients, n_classes)
        .config(config)
        .resume_from(&path)
        .expect("load snapshot")
        .observer(&mut mem)
        .run();
    assert_same_run(&stopped, &resumed);
    // The restored driver is already stopped: no further round may run.
    assert_eq!(mem.count("round_started"), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_half_written_checkpoint_is_never_loaded() {
    let dir = scratch("atomicity");
    let (clients, n_classes) = mini_setup(1);
    let path = dir.join("run.ckpt");
    FedRun::new(&clients, n_classes)
        .config(cfg(1, 2))
        .checkpoint_every(2, &path)
        .run();
    let good = RunCheckpoint::load(&path).expect("valid snapshot");
    // The atomic writer leaves no tmp file behind on success.
    let tmp = dir.join("run.ckpt.tmp");
    assert!(!tmp.exists(), "tmp file must be renamed away");

    // Simulate a crash mid-save: a truncated tmp sibling appears. The real
    // checkpoint is untouched and still loads to the same state.
    let bytes = std::fs::read(&path).expect("read snapshot");
    std::fs::write(&tmp, &bytes[..bytes.len() / 3]).expect("plant tmp");
    assert_eq!(RunCheckpoint::load(&path).expect("still valid"), good);

    // Loading truncated JSON itself fails with a typed parse error, so a
    // torn file can never be half-restored.
    let err = RunCheckpoint::load(&tmp).expect_err("torn file must be rejected");
    assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
    let err = FedRun::new(&clients, n_classes)
        .resume_from(&tmp)
        .err()
        .expect("builder rejects torn file");
    assert!(matches!(err, CheckpointError::Parse(_)), "{err}");

    // A missing file is a typed io error, not a panic.
    let err = RunCheckpoint::load(dir.join("absent.ckpt")).expect_err("missing file");
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[should_panic(expected = "`seed` differs")]
fn resuming_under_a_different_seed_is_rejected() {
    let dir = scratch("seed-mismatch");
    let (clients, n_classes) = mini_setup(4);
    let path = dir.join("run.ckpt");
    FedRun::new(&clients, n_classes)
        .config(cfg(4, 2))
        .checkpoint_every(2, &path)
        .run();
    let _ = FedRun::new(&clients, n_classes)
        .config(cfg(9, 4))
        .resume_from(&path)
        .expect("file loads fine; the mismatch is caught at run()")
        .run();
}

#[test]
#[should_panic(expected = "`beta` differs")]
fn resuming_under_a_different_beta_is_rejected() {
    let dir = scratch("beta-mismatch");
    let (clients, n_classes) = mini_setup(5);
    let path = dir.join("run.ckpt");
    FedRun::new(&clients, n_classes)
        .config(cfg(5, 2))
        .checkpoint_every(2, &path)
        .run();
    let other = FedOmdConfig {
        beta: 2.0,
        ..FedOmdConfig::paper()
    };
    let _ = FedRun::new(&clients, n_classes)
        .config(cfg(5, 4).with_omd(other))
        .resume_from(&path)
        .expect("file loads fine; the mismatch is caught at run()")
        .run();
}

#[test]
#[should_panic(expected = "`algo` differs")]
fn resuming_into_a_different_algorithm_is_rejected() {
    let dir = scratch("algo-mismatch");
    let (clients, n_classes) = mini_setup(6);
    let path = dir.join("run.ckpt");
    FedRun::new(&clients, n_classes)
        .config(cfg(6, 2))
        .checkpoint_every(2, &path)
        .run();
    let _ = FedRun::new(&clients, n_classes)
        .config(cfg(6, 4))
        .baseline(Baseline::FedMlp)
        .resume_from(&path)
        .expect("file loads fine; the mismatch is caught at run()")
        .run();
}
