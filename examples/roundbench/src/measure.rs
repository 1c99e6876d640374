//! One measurement of one workload: repeat whole runs (set-up included)
//! until the time is up, check the outputs, and reduce the repetitions to
//! the end-to-end and per-layer metric values.

use std::time::{Duration, Instant};

use fedomd_telemetry::{Phase, RoundEvent};

use crate::metrics::Values;
use crate::probes::{self, ProbeInput};
use crate::stats::{median, tail};
use crate::trace::{
    build_spans, peak_rss_mb, reset_peak_rss, us, ClockObserver, Recorder, RoundClock, Spans,
};
use crate::workloads::{local_majority_floor, result_digest, Transport, Workload};

/// Which pass a measurement is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Untraced repetitions for the whole budget: the end-to-end metrics.
    EndToEnd,
    /// Untraced and traced repetitions alternating for half the budget,
    /// then the probes: the per-layer metrics and the tracing overhead.
    Traced,
    /// One traced repetition of at most three rounds, probes at three
    /// iterations: every code path and every check, quickly.
    Smoke,
}

const SMOKE_ROUNDS: usize = 3;
const PHASES: [Phase; 5] = [
    Phase::LocalTrain,
    Phase::Comms,
    Phase::Aggregation,
    Phase::Eval,
    Phase::FoldOverlap,
];

/// What one closed round looked like in the event stream.
#[derive(Clone, Debug, Default)]
struct RoundAnatomy {
    dur_ms: f64,
    /// Summed `PhaseDone` per phase, in `PHASES` order.
    phase_ms: [f64; 5],
    /// Round time no phase span covers.
    self_ms: f64,
    participants: f64,
    frames: f64,
    steps: f64,
    events: f64,
}

/// What a run reported about its learning and its traffic.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub digest: u64,
    pub test_acc: f64,
    pub val_acc: f64,
    pub rounds_run: u64,
    pub uplink_per_round: f64,
    pub downlink_per_round: f64,
    pub stats_share: f64,
}

/// One repetition: set-up plus a full run.
pub struct Rep {
    pub traced: bool,
    pub setup_s: f64,
    pub generate_ms: f64,
    pub partition_ms: f64,
    pub run_init_ms: f64,
    pub join_ms: Option<f64>,
    pub first_round_ms: Option<f64>,
    /// `VmHWM` over this repetition alone.
    pub peak_rss_mb: Option<f64>,
    /// Wall-times of the rounds after the warm-up round 0.
    pub steady_ms: Vec<f64>,
    pub scheduled: usize,
    pub failed: usize,
    pub outcome: Result<Outcome, String>,
    pub floor: f64,
    pub chance: f64,
    cpu_s_per_round: Option<f64>,
    rounds: Vec<RoundAnatomy>,
    client0_rounds: Vec<RoundAnatomy>,
}

/// Everything one invocation measured.
pub struct Measurement {
    pub workload: &'static Workload,
    pub seed: u64,
    pub reps: Vec<Rep>,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Hard failures of the correctness gate (empty: correct).
    pub failures: Vec<String>,
    /// Non-fatal observations the gate prints.
    pub notes: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    pub trace_jsonl: String,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Splits a recorded stream into its closed rounds. `spans`/`run` are the
/// spans `build_spans` made of the same stream (for the self times).
fn anatomy(
    events: &[(Duration, RoundEvent)],
    clock: &RoundClock,
    spans: &Spans,
    run: usize,
) -> Vec<RoundAnatomy> {
    let gaps = clock.round_gaps();
    let round_spans: Vec<usize> = spans
        .0
        .iter()
        .filter(|s| s.parent == Some(run) && s.name == "round")
        .map(|s| s.id)
        .collect();
    let mut rounds: Vec<RoundAnatomy> = Vec::new();
    for (_, ev) in events {
        if let RoundEvent::RoundStarted { .. } = ev {
            rounds.push(RoundAnatomy::default());
        }
        let Some(r) = rounds.last_mut() else { continue };
        r.events += 1.0;
        match ev {
            RoundEvent::PhaseDone { phase, micros } => {
                let i = PHASES
                    .iter()
                    .position(|p| p == phase)
                    .expect("listed phase");
                r.phase_ms[i] += *micros as f64 / 1e3;
            }
            RoundEvent::AggregationDone { participants } => r.participants = *participants as f64,
            RoundEvent::FrameSent { .. } => r.frames += 1.0,
            RoundEvent::LocalStepDone { .. } => r.steps += 1.0,
            _ => {}
        }
    }
    rounds.truncate(gaps.len());
    for (i, r) in rounds.iter_mut().enumerate() {
        r.dur_ms = ms(gaps[i]);
        r.self_ms = round_spans
            .get(i)
            .map_or(0.0, |&id| spans.self_time_us(id) / 1e3);
    }
    rounds
}

fn run_rep(
    w: &Workload,
    seed: u64,
    rounds: usize,
    epoch: Instant,
    traced: bool,
    run_id: &str,
    trace_out: &mut String,
) -> Rep {
    reset_peak_rss();
    let t_start = epoch.elapsed();
    let prepared = w.prepare(seed);
    let expected = w.cohort_size(seed);
    let (exec, clock, events, cpu) = if traced {
        let mut rec = Recorder::new(epoch, expected);
        let exec = w.execute(&prepared, seed, rounds, epoch, &mut rec, true);
        (exec, rec.clock, rec.events, rec.cpu)
    } else {
        let mut obs = ClockObserver {
            epoch,
            clock: RoundClock::new(expected),
        };
        let exec = w.execute(&prepared, seed, rounds, epoch, &mut obs, false);
        (exec, obs.clock, Vec::new(), (None, None))
    };
    let t_end = epoch.elapsed();

    let gaps = clock.round_gaps();
    let first_start = clock.starts.first().copied();
    let mut rep = Rep {
        traced,
        setup_s: first_start.map_or(f64::NAN, |t| (t - t_start).as_secs_f64()),
        generate_ms: ms(prepared.generate),
        partition_ms: ms(prepared.partition),
        run_init_ms: first_start.map_or(f64::NAN, |t| ms(t - exec.entry)),
        join_ms: None,
        first_round_ms: gaps.first().map(|&g| ms(g)),
        peak_rss_mb: peak_rss_mb(),
        steady_ms: gaps.iter().skip(1).map(|&g| ms(g)).collect(),
        scheduled: rounds,
        failed: clock.failed_rounds(rounds),
        outcome: exec.result.map(|r| {
            let n = r.comms.rounds.max(1) as f64;
            Outcome {
                digest: result_digest(&r),
                test_acc: r.test_acc,
                val_acc: r.val_acc,
                rounds_run: r.comms.rounds,
                uplink_per_round: r.comms.uplink_bytes as f64 / n,
                downlink_per_round: r.comms.downlink_bytes as f64 / n,
                stats_share: r.comms.stats_fraction(),
            }
        }),
        floor: local_majority_floor(&prepared.clients, prepared.n_classes),
        chance: 1.0 / prepared.n_classes as f64,
        cpu_s_per_round: None,
        rounds: Vec::new(),
        client0_rounds: Vec::new(),
    };
    if rep.outcome.is_err() {
        // A run that errored failed every round it was asked for.
        rep.failed = rounds;
    }
    if !traced {
        return rep;
    }

    if let (Some(a), Some(b)) = cpu {
        if rounds > 1 {
            rep.cpu_s_per_round = Some((b - a) / (rounds - 1) as f64);
        }
    }
    if w.transport == Transport::Tcp {
        rep.join_ms = events
            .iter()
            .find(|(_, e)| matches!(e, RoundEvent::RunStarted { .. }))
            .map(|(t, _)| ms(*t - exec.entry));
    }
    let mut spans = Spans::default();
    let root = spans.push(None, "rep", us(t_start), us(t_end));
    let generated = t_start + prepared.generate;
    spans.push(Some(root), "data.generate", us(t_start), us(generated));
    spans.push(
        Some(root),
        "graph.partition",
        us(generated),
        us(generated + prepared.partition),
    );
    let run = build_spans(&mut spans, Some(root), "run", exec.entry, &events);
    rep.rounds = anatomy(&events, &clock, &spans, run);
    if let Some(c0) = exec.client0 {
        let run0 = build_spans(&mut spans, Some(root), "client0", exec.entry, &c0.events);
        rep.client0_rounds = anatomy(&c0.events, &c0.clock, &spans, run0);
    }
    trace_out.push_str(&spans.to_jsonl(run_id));
    rep
}

/// Median over `rounds` of `f`, or `None` when there are none.
fn round_median(rounds: &[&RoundAnatomy], f: impl Fn(&RoundAnatomy) -> f64) -> Option<f64> {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Runs the measurement. `seconds` is the time to measure for; a
/// repetition in flight when it runs out is finished, not cut.
pub fn measure(w: &'static Workload, seed: u64, seconds: f64, mode: Mode) -> Measurement {
    let epoch = Instant::now();
    let rounds = if mode == Mode::Smoke {
        w.rounds.min(SMOKE_ROUNDS)
    } else {
        w.rounds
    };
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    let budget = match mode {
        Mode::EndToEnd => seconds,
        Mode::Traced => seconds / 2.0,
        Mode::Smoke => 0.0,
    };
    let min_reps = if mode == Mode::Traced { 2 } else { 1 };
    let mut reps: Vec<Rep> = Vec::new();
    let mut trace_jsonl = String::new();
    let loop_start = Instant::now();
    loop {
        let traced = match mode {
            Mode::EndToEnd => false,
            Mode::Traced => reps.len() % 2 == 1,
            Mode::Smoke => true,
        };
        let run_id = format!("{}/{}/{}", w.name, seed, reps.len());
        let rep = run_rep(w, seed, rounds, epoch, traced, &run_id, &mut trace_jsonl);
        let errored = rep.outcome.is_err();
        reps.push(rep);
        if errored || (reps.len() >= min_reps && loop_start.elapsed().as_secs_f64() >= budget) {
            break;
        }
    }

    // Correctness gate, learning half.
    let mut digests: Vec<u64> = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        attempted += rep.scheduled;
        failed += rep.failed;
        match &rep.outcome {
            Err(e) => failures.push(format!("rep {i}: run failed: {e}")),
            Ok(o) => {
                digests.push(o.digest);
                // Finite, and a share of the test nodes. Beating chance or the
                // local-majority floor is reported below but not required: a
                // repetition is a few rounds long, and on the 5000-party
                // workloads three rounds of an 8-class model can sit under
                // both.
                let share = |a: f64| (0.0..=1.0).contains(&a);
                if !(share(o.test_acc) && share(o.val_acc)) {
                    failures.push(format!(
                        "rep {i}: accuracy is not a finite share (test {}, val {})",
                        o.test_acc, o.val_acc
                    ));
                }
                if o.rounds_run != rep.scheduled as u64 {
                    failures.push(format!(
                        "rep {i}: ran {} of {} rounds",
                        o.rounds_run, rep.scheduled
                    ));
                }
            }
        }
    }
    if digests.windows(2).any(|p| p[0] != p[1]) {
        failures.push(format!(
            "result digest differs between repetitions: {digests:016x?}"
        ));
    }
    let outcomes: Vec<&Outcome> = reps
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();

    // Correctness gate, transport half: the same repetition over the
    // default in-process channel must learn bit-identically. It runs after
    // the repetitions so that what it leaves in the allocator is in none of
    // their peaks.
    if let (Transport::Tcp, Some(o)) = (w.transport, outcomes.first()) {
        let prepared = w.prepare(seed);
        let mut obs = ClockObserver {
            epoch,
            clock: RoundClock::new(w.cohort_size(seed)),
        };
        let twin = result_digest(&w.execute_inproc_twin(&prepared, seed, rounds, &mut obs));
        attempted += rounds;
        failed += obs.clock.failed_rounds(rounds);
        let p50 = |gaps: &[f64]| median(gaps).unwrap_or(f64::NAN);
        let twin_ms: Vec<f64> = obs
            .clock
            .round_gaps()
            .iter()
            .skip(1)
            .map(|&g| ms(g))
            .collect();
        let tcp_ms: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.steady_ms.iter().copied())
            .collect();
        if twin == o.digest {
            notes.push(format!(
                "tcp twin: the {rounds}-round in-process twin learns bit-identically; \
                 steady round p50 {:.3} ms over TCP, {:.3} ms in-process",
                p50(&tcp_ms),
                p50(&twin_ms)
            ));
        } else {
            failures.push(format!(
                "tcp twin: TCP digest {:016x} differs from the in-process twin {twin:016x}",
                o.digest
            ));
        }
    }
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} rounds failed"));
    }
    let wire = |o: &Outcome| o.uplink_per_round + o.downlink_per_round;
    if outcomes.windows(2).any(|p| wire(p[0]) != wire(p[1])) {
        failures.push("wire bytes per round differ between repetitions".into());
    }
    if let (Some(o), Some(rep)) = (outcomes.first(), reps.first()) {
        let side = if o.test_acc > rep.floor {
            "above"
        } else {
            "below"
        };
        notes.push(format!(
            "test accuracy {:.4} is {side} the local-majority floor {:.4} (chance {:.4})",
            o.test_acc, rep.floor, rep.chance
        ));
        if mode != Mode::Smoke {
            let recorded = w.recorded_digest(seed);
            notes.push(match recorded {
                Some(d) if d == o.digest => format!("result digest {:016x}: MATCH", o.digest),
                Some(d) => format!(
                    "result digest {:016x}: CHANGED (recorded {d:016x})",
                    o.digest
                ),
                None => format!(
                    "result digest {:016x}: no digest recorded for seed {seed}",
                    o.digest
                ),
            });
        }
    }

    // End-to-end metrics, from the untraced repetitions (the smoke pass
    // has only its traced one).
    let plain: Vec<&Rep> = reps
        .iter()
        .filter(|r| !r.traced || mode == Mode::Smoke)
        .collect();
    let mut end_to_end = Values::new();
    let steady: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.steady_ms.iter().copied())
        .collect();
    if let Some(v) = median(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>()) {
        end_to_end.insert("setup_s", v);
    }
    if let Some(v) = median(&steady) {
        end_to_end.insert("round_ms_p50", v);
        end_to_end.insert(
            "rounds_per_s",
            steady.len() as f64 * 1e3 / steady.iter().sum::<f64>(),
        );
    }
    // The leanest repetition — in practice the first. A later one starts on
    // a heap that still holds what the allocator kept from the earlier ones
    // (wide_tcp: 183 -> 238 MB over six repetitions), which a deployment
    // running one run per process never sees.
    if let Some(v) = plain.iter().filter_map(|r| r.peak_rss_mb).reduce(f64::min) {
        end_to_end.insert("peak_rss_mb", v);
    }
    if let Some(o) = outcomes.first() {
        end_to_end.insert("wire_bytes_per_round", wire(o));
    }

    let mut per_layer = Values::new();
    if mode != Mode::EndToEnd {
        let blocking_steps = per_layer_from_reps(w, &reps, &mut per_layer);
        per_layer.insert(
            "core.failed_round_share",
            failed as f64 / attempted.max(1) as f64,
        );
        if mode == Mode::Traced {
            let traced: Vec<f64> = reps
                .iter()
                .filter(|r| r.traced)
                .flat_map(|r| r.steady_ms.iter().copied())
                .collect();
            if let (Some(t), Some(u)) = (median(&traced), median(&steady)) {
                per_layer.insert("telemetry.trace_overhead_pct", 100.0 * (t - u) / u);
            }
        }
        if let Some(o) = outcomes.first() {
            per_layer.insert("federated.uplink_bytes_per_round", o.uplink_per_round);
            per_layer.insert("federated.downlink_bytes_per_round", o.downlink_per_round);
            per_layer.insert("federated.stats_byte_share", o.stats_share);
        }

        // Probes, on a freshly prepared federation's shard 0.
        let prepared = w.prepare(seed);
        let run = w.run_config(seed, rounds);
        let (iters, warmup) = if mode == Mode::Smoke { (3, 1) } else { (30, 3) };
        let mut spans = Spans::default();
        let probed = probes::run(
            &ProbeInput {
                shard: &prepared.clients[0],
                n_classes: prepared.n_classes,
                run: &run,
                fedomd: w.transport != Transport::Baseline,
                tcp: w.transport == Transport::Tcp,
                parties: w.parties(),
                cohort: w.cohort(seed),
                iters,
                warmup,
            },
            epoch,
            &mut spans,
        );
        trace_jsonl.push_str(&spans.to_jsonl(&format!("{}/{}/probes", w.name, seed)));
        per_layer.extend(probed.values);
        // Share of the local-train phase the per-client probes explain.
        if let (Some(steps), Some(&phase)) =
            (blocking_steps, per_layer.get("core.phase.local_train_ms"))
        {
            if phase > 0.0 {
                per_layer.insert("proc.probe_coverage", probed.client_step_ms * steps / phase);
            }
        }
    }

    Measurement {
        workload: w,
        seed,
        reps,
        end_to_end,
        per_layer,
        failures,
        notes,
        attempted,
        failed,
        trace_jsonl,
    }
}

/// The per-layer metrics that come from the event stream and the
/// repetition timings (source (a) in the README). Returns the local steps
/// that run one after another inside the measured local-train phase: all of
/// a round's in-process, client 0's own on TCP.
fn per_layer_from_reps(w: &Workload, reps: &[Rep], out: &mut Values) -> Option<f64> {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let med = |f: &dyn Fn(&Rep) -> Option<f64>| {
        median(&traced.iter().filter_map(|r| f(r)).collect::<Vec<_>>())
    };
    let mut put = |name: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            out.insert(name, v);
        }
    };
    put("data.generate_ms", med(&|r| Some(r.generate_ms)));
    put("graph.partition_ms", med(&|r| Some(r.partition_ms)));
    put("core.run_init_ms", med(&|r| Some(r.run_init_ms)));
    put("core.first_round_ms", med(&|r| r.first_round_ms));
    put("net.join_ms", med(&|r| r.join_ms));
    put("proc.cpu_s_per_round", med(&|r| r.cpu_s_per_round));

    let steady: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.steady_ms.iter().copied())
        .collect();
    put("core.round_samples", Some(steady.len() as f64));
    put("core.round_ms_max", steady.iter().copied().reduce(f64::max));
    if let Some((pct, v)) = tail(&steady) {
        put("core.round_tail_pct", Some(pct as f64));
        put("core.round_ms_tail", Some(v));
    }

    // Steady rounds of the server's (or the in-process run's) stream, and
    // of client 0's own stream on TCP, where training and evaluation
    // happen on the clients.
    let server: Vec<&RoundAnatomy> = traced
        .iter()
        .flat_map(|r| r.rounds.iter().skip(1))
        .collect();
    let client0: Vec<&RoundAnatomy> = traced
        .iter()
        .flat_map(|r| r.client0_rounds.iter().skip(1))
        .collect();
    let tcp = w.transport == Transport::Tcp;
    let client_side = if tcp { &client0 } else { &server };
    let phase = |rounds: &[&RoundAnatomy], i: usize| round_median(rounds, |r| r.phase_ms[i]);
    put("core.phase.local_train_ms", phase(client_side, 0));
    put("core.phase.comms_ms", phase(&server, 1));
    put("core.phase.aggregation_ms", phase(&server, 2));
    put("core.phase.eval_ms", phase(client_side, 3));
    put("core.phase.fold_overlap_ms", phase(&server, 4));
    put(
        "core.phase.unattributed_ms",
        round_median(&server, |r| r.self_ms),
    );
    put(
        "core.phase.coverage",
        round_median(&server, |r| 1.0 - r.self_ms / r.dur_ms),
    );
    put(
        "core.participants_per_round",
        round_median(&server, |r| r.participants),
    );
    put("core.frames_per_round", round_median(&server, |r| r.frames));
    let blocking_steps = round_median(client_side, |r| r.steps);
    put(
        "core.local_steps_per_round",
        // The server sees no local steps; the clients are alike.
        blocking_steps.map(|s| if tcp { s * w.parties() as f64 } else { s }),
    );
    put(
        "telemetry.events_per_round",
        round_median(&server, |r| r.events),
    );
    blocking_steps
}
