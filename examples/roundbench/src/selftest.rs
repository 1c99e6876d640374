//! `--selftest`: the benchmark's own arithmetic on synthetic inputs, and
//! the metric tables against `BENCHMARK.json`. Runs in well under a second.

use std::time::Duration;

use fedomd_jsonio::Json;
use fedomd_telemetry::{Phase, RoundEvent};

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread, quartiles, tail, Fnv1a};
use crate::trace::{build_spans, RoundClock, Spans};
use crate::workloads::WORKLOADS;

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

fn started(round: u64) -> RoundEvent {
    RoundEvent::RoundStarted { round }
}

fn finished() -> RoundEvent {
    RoundEvent::RunFinished {
        algorithm: "x".into(),
        test_acc: 0.5,
        val_acc: 0.5,
        best_round: 0,
        rounds: 3,
    }
}

fn tail_rule() -> bool {
    let n199: Vec<f64> = (1..=199).map(f64::from).collect();
    let n20: Vec<f64> = (1..=20).map(f64::from).collect();
    let n7: Vec<f64> = (1..=7).map(f64::from).collect();
    // p94 of 1..=199 by nearest rank is the 188th value; 11 lie beyond it.
    tail(&n199) == Some((94, 188.0)) && tail(&n20) == Some((50, 10.0)) && tail(&n7).is_none()
}

fn medians() -> bool {
    median(&[3.0, 1.0, 2.0]) == Some(2.0)
        && median(&[4.0, 1.0, 2.0, 3.0]) == Some(2.5)
        && median(&[]).is_none()
}

fn quartile_rule() -> bool {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    quartiles(&xs) == Some((2.75, 8.25))
        && quartile_spread(&xs) == Some(1.0)
        && quartiles(&[1.0]).is_none()
}

fn span_self_time() -> bool {
    let mut s = Spans::default();
    let parent = s.push(None, "parent", 0.0, 100.0);
    let a = s.push(Some(parent), "a", 10.0, 30.0);
    s.push(Some(parent), "b overlaps a", 20.0, 50.0);
    s.push(Some(parent), "c runs past the parent", 60.0, 120.0);
    s.push(Some(a), "nested in a", 12.0, 18.0);
    // Children cover [10, 50] and [60, 100]; the grandchild is a's business.
    s.self_time_us(parent) == 20.0 && s.self_time_us(a) == 14.0
}

fn round_gaps() -> bool {
    let mut full = RoundClock::new(2);
    for (t, ev) in [
        (0, started(0)),
        (10, started(1)),
        (25, started(2)),
        (45, finished()),
    ] {
        full.observe(ms(t), &ev);
    }
    let mut early = RoundClock::new(2);
    for (t, ev) in [(0, started(0)), (10, started(1)), (25, started(2))] {
        early.observe(ms(t), &ev);
    }
    full.round_gaps() == [ms(10), ms(15), ms(20)]
        && full.failed_rounds(3) == 0
        && early.round_gaps() == [ms(10), ms(15)]
        // The open round failed, and so did the two that never started.
        && early.failed_rounds(5) == 3
}

fn failed_rounds() -> bool {
    let mut c = RoundClock::new(3);
    let events = [
        started(0),
        RoundEvent::StatsRound1Done { participants: 3 },
        RoundEvent::AggregationDone { participants: 3 },
        started(1),
        RoundEvent::StatsRound2Done { participants: 2 },
        RoundEvent::AggregationDone { participants: 3 },
        started(2),
        RoundEvent::FrameDropped {
            kind: "WeightUpdate",
            bytes: 9,
        },
        RoundEvent::FrameDropped {
            kind: "WeightUpdate",
            bytes: 9,
        },
        started(3),
        RoundEvent::AggregationDone { participants: 3 },
        finished(),
    ];
    for (i, ev) in events.iter().enumerate() {
        c.observe(ms(i as u64), ev);
    }
    c.degraded == [false, true, true, false] && c.failed_rounds(4) == 2 && c.failed_rounds(6) == 4
}

fn spans_from_events() -> bool {
    let phase = |micros| RoundEvent::PhaseDone {
        phase: Phase::Comms,
        micros,
    };
    let events = [
        (ms(10), started(0)),
        (ms(14), phase(3000)),
        (ms(20), started(1)),
        (ms(26), phase(2000)),
        (ms(30), finished()),
    ];
    let mut s = Spans::default();
    let run = build_spans(&mut s, None, "run", ms(5), &events);
    let rounds: Vec<_> = s.0.iter().filter(|x| x.name == "round").collect();
    let phases: Vec<_> = s.0.iter().filter(|x| x.name == "phase.comms").collect();
    s.0[run].start_us == 5000.0
        && s.0[run].end_us == 30000.0
        && rounds.len() == 2
        && (rounds[0].start_us, rounds[0].end_us) == (10000.0, 20000.0)
        && (rounds[1].start_us, rounds[1].end_us) == (20000.0, 30000.0)
        && (phases[0].start_us, phases[0].end_us) == (11000.0, 14000.0)
        && phases[0].parent == Some(rounds[0].id)
        && phases[1].parent == Some(rounds[1].id)
        && s.self_time_us(rounds[0].id) == 7000.0
        && s.to_jsonl("w/0/0").lines().count() == 5
}

fn digest() -> bool {
    // FNV-1a 64 of eight zero bytes.
    let mut h = Fnv1a::new();
    h.u64(0);
    let mut g = Fnv1a::new();
    g.f64(0.0);
    h.finish() == 0xa8c7_f832_281a_39c5 && g.finish() == h.finish()
}

/// The names, units and directions in `BENCHMARK.json` (when the current
/// directory has one) are exactly the ones this binary prints.
fn benchmark_json() -> Option<bool> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let Ok(json) = Json::parse(&text) else {
        return Some(false);
    };
    let listed = |key: &str, fields: &[&str]| -> Option<Vec<Vec<String>>> {
        json.get(key)?
            .as_array()?
            .iter()
            .map(|m| {
                fields
                    .iter()
                    .map(|f| {
                        let v = m.get(f)?;
                        v.as_str()
                            .map(str::to_string)
                            .or(v.as_f64().map(|b| b.to_string()))
                    })
                    .collect()
            })
            .collect()
    };
    let e2e: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            vec![
                n.to_string(),
                u.to_string(),
                b.to_string(),
                bound.to_string(),
            ]
        })
        .collect();
    let layers: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|(n, u, b)| vec![n.to_string(), u.to_string(), b.to_string()])
        .collect();
    let names: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|w| vec![w.name.to_string(), w.why.to_string()])
        .collect();
    Some(
        listed("end_to_end", &["name", "unit", "better", "bound"]) == Some(e2e)
            && listed("per_layer", &["name", "unit", "better"]) == Some(layers)
            && listed("workloads", &["name", "why"]) == Some(names),
    )
}

/// Runs every check, printing one line each; `true` when all pass.
pub fn run() -> bool {
    let mut checks: Vec<(&str, Option<bool>)> = vec![
        (
            "tail percentile rule (199 -> p94, 7 -> none)",
            Some(tail_rule()),
        ),
        ("median of repetitions", Some(medians())),
        (
            "quartiles as statistics.quantiles(n=4)",
            Some(quartile_rule()),
        ),
        (
            "span self time, overlapping and nested children",
            Some(span_self_time()),
        ),
        (
            "round gaps, including a run that ends early",
            Some(round_gaps()),
        ),
        (
            "failed rounds: short phase, dropped frame, missing",
            Some(failed_rounds()),
        ),
        ("spans from an event stream", Some(spans_from_events())),
        ("FNV-1a digest", Some(digest())),
    ];
    checks.push(("metric tables match BENCHMARK.json", benchmark_json()));
    let mut ok = true;
    for (name, result) in checks {
        let verdict = match result {
            Some(true) => "ok",
            Some(false) => "FAILED",
            None => "skipped (no BENCHMARK.json in the current directory)",
        };
        println!("selftest {name}: {verdict}");
        ok &= result != Some(false);
    }
    ok
}
