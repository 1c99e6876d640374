//! roundbench — the round-level benchmark of the FedOMD workspace.
//!
//! ```text
//! roundbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--label L]
//! roundbench --smoke | --selftest | --verify-repeat [--reps K]
//! ```
//!
//! One workload runs in this process, so `VmHWM` is that workload's own;
//! `all`, `--smoke` and `--verify-repeat` re-execute this binary once per
//! workload. The last line of standard output of a single-workload run is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. See the
//! README beside this package for the metric glossary.

mod measure;
mod metrics;
mod probes;
mod selftest;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use fedomd_jsonio::{obj, Json};

use measure::{measure, Measurement, Mode};
use metrics::{Values, END_TO_END, PER_LAYER};
use stats::{median, quartile_spread};
use workloads::{Transport, Workload, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    label: String,
    reps: usize,
    smoke: bool,
    selftest: bool,
    verify_repeat: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: roundbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--label L]\n       roundbench --smoke | --selftest | --verify-repeat [--reps K] [--seed N] [--seconds S]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        label: "run".into(),
        reps: 3,
        smoke: false,
        selftest: false,
        verify_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a finite, non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--label" => {
                args.label = value("a name")?;
                let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                if args.label.is_empty()
                    || args.label.starts_with('.')
                    || !args.label.chars().all(ok)
                {
                    return Err("--label takes letters, digits, '_', '.', '-'".into());
                }
            }
            "--reps" => {
                args.reps = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            "--selftest" => args.selftest = true,
            "--verify-repeat" => args.verify_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `<target dir>/roundbench/<label>`: artefacts never go into the tree.
fn out_dir(label: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("roundbench").join(label)
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_values(title: &str, table: &[(&'static str, &'static str)], values: &Values) {
    println!("  {title}");
    for (name, unit) in table {
        match values.get(name) {
            Some(v) => println!("    {name:<36} {v:>16.4} {unit}"),
            None => println!("    {name:<36} {:>16} {unit}", "absent"),
        }
    }
}

/// The contract's `metrics` object: every listed name with a number. A
/// metric absent on this workload reads 0 there (a measured time is never
/// exactly 0); `results.json` and the table say `absent`.
fn metrics_json(table: &[(&'static str, &'static str)], values: &Values) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    obj([("value", value.into()), ("unit", (*unit).into())]),
                )
            })
            .collect(),
    )
}

fn values_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(k, v)| (k.to_string(), (*v).into()))
            .collect(),
    )
}

fn results_json(m: &Measurement, mode: Mode, oversubscribed: bool) -> Json {
    let reps: Vec<Json> = m
        .reps
        .iter()
        .map(|r| {
            obj([
                ("traced", r.traced.into()),
                ("setup_s", r.setup_s.into()),
                ("run_init_ms", r.run_init_ms.into()),
                (
                    "first_round_ms",
                    r.first_round_ms.map_or(Json::Null, Json::from),
                ),
                ("peak_rss_mb", r.peak_rss_mb.map_or(Json::Null, Json::from)),
                ("steady_rounds", r.steady_ms.len().into()),
                (
                    "round_ms_p50",
                    median(&r.steady_ms).map_or(Json::Null, Json::from),
                ),
                ("scheduled", r.scheduled.into()),
                ("failed", r.failed.into()),
                (
                    "digest",
                    match &r.outcome {
                        Ok(o) => format!("{:016x}", o.digest).into(),
                        Err(e) => format!("error: {e}").into(),
                    },
                ),
            ])
        })
        .collect();
    obj([
        ("workload", m.workload.name.into()),
        ("seed", m.seed.into()),
        ("mode", format!("{mode:?}").into()),
        ("nproc", cores().into()),
        ("oversubscribed", oversubscribed.into()),
        ("correct", m.failures.is_empty().into()),
        ("attempted", m.attempted.into()),
        ("failed", m.failed.into()),
        ("failures", m.failures.clone().into()),
        ("notes", m.notes.clone().into()),
        ("end_to_end", values_json(&m.end_to_end)),
        ("per_layer", values_json(&m.per_layer)),
        ("reps", Json::Arr(reps)),
    ])
}

/// Measures one workload in this process, prints the table and the
/// contract line, and writes the artefacts.
fn run_one(w: &'static Workload, args: &Args, mode: Mode) -> ExitCode {
    // The TCP workloads run a server and two client threads: with fewer
    // than two cores they time the scheduler. Measured anyway, but marked.
    let oversubscribed = w.transport == Transport::Tcp && cores() < 2;
    let m = measure(w, args.seed, args.seconds, mode);

    println!(
        "{} seed {} ({mode:?}, {} reps of {} rounds, {} cores{})",
        w.name,
        args.seed,
        m.reps.len(),
        m.reps.first().map_or(0, |r| r.scheduled),
        cores(),
        if oversubscribed {
            ", oversubscribed"
        } else {
            ""
        }
    );
    let e2e: Vec<_> = END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect();
    let layers: Vec<_> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    if mode != Mode::Traced {
        print_values("end to end", &e2e, &m.end_to_end);
        println!(
            "    {:<36} {:>16.4} ratio ({} of {} rounds)",
            "failed_round_share",
            m.failed as f64 / m.attempted.max(1) as f64,
            m.failed,
            m.attempted
        );
    }
    if mode != Mode::EndToEnd {
        print_values("per layer", &layers, &m.per_layer);
    }
    for note in &m.notes {
        println!("  check: {note}");
    }
    for failure in &m.failures {
        println!("  FAILED: {failure}");
    }

    let dir = out_dir(&args.label);
    let stem = format!("{}.t{}", w.name, u8::from(mode != Mode::EndToEnd));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.results.json")),
            results_json(&m, mode, oversubscribed).to_pretty(),
        )?;
        if mode != Mode::EndToEnd {
            std::fs::write(dir.join(format!("{}.trace.jsonl", w.name)), &m.trace_jsonl)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "roundbench: could not write artefacts under {}: {e}",
            dir.display()
        );
    }

    // One pass, one table: the traced pass reports the layers, the
    // untraced one the end-to-end metrics, the smoke pass both.
    let mut values = m.end_to_end.clone();
    values.extend(&m.per_layer);
    let table: Vec<_> = match mode {
        Mode::EndToEnd => e2e,
        Mode::Traced => layers,
        Mode::Smoke => e2e.into_iter().chain(layers).collect(),
    };
    let metrics = metrics_json(&table, &values);
    let correct = m.failures.is_empty();
    let line = obj([
        ("correct", correct.into()),
        ("attempted", m.attempted.into()),
        ("failed", m.failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_compact());
    exit(correct)
}

/// What a child run printed on its last line.
struct ChildResult {
    correct: bool,
    metrics: std::collections::BTreeMap<String, f64>,
}

/// Re-executes this binary for one workload, passing its table through
/// and parsing its last line.
fn run_child(
    w: &Workload,
    args: &Args,
    extra: &[&str],
    quiet: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--label",
            &args.label,
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    if !quiet {
        for l in &lines {
            println!("{l}");
        }
    }
    let json = Json::parse(last).map_err(|e| format!("{}: no result line ({e})", w.name))?;
    let correct =
        json.get("correct").and_then(Json::as_bool).unwrap_or(false) && out.status.success();
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{}: result line has no metrics", w.name))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult { correct, metrics })
}

/// `--workload all`: every workload, untraced then traced, each in a
/// child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in ["0", "1"] {
            match run_child(w, args, &["--trace", trace], false) {
                Ok(r) => ok &= r.correct,
                Err(e) => {
                    println!("FAILED: {e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "{}",
        if ok {
            "roundbench: all workloads correct"
        } else {
            "roundbench: FAILED"
        }
    );
    exit(ok)
}

fn run_smoke(args: &Args) -> ExitCode {
    if !selftest::run() {
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for w in &WORKLOADS {
        match run_child(w, args, &["--smoke"], true) {
            Ok(r) if r.correct => println!("smoke {:<16} ok ({} metrics)", w.name, r.metrics.len()),
            Ok(_) => {
                println!(
                    "smoke {:<16} FAILED (see its table: --workload {} --smoke)",
                    w.name, w.name
                );
                ok = false;
            }
            Err(e) => {
                println!("smoke FAILED: {e}");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "roundbench: SMOKE OK"
        } else {
            "roundbench: SMOKE FAILED"
        }
    );
    exit(ok)
}

/// `--verify-repeat`: two sets of `--reps` untraced passes; a set's value
/// is the median over its passes. Fails when set B is worse than set A by
/// more than a metric's bound, prints every observed difference and the
/// quartile spread over all passes, and writes them to `repeat.json`.
fn run_verify_repeat(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut sets: [Vec<ChildResult>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for _ in 0..args.reps {
                match run_child(w, args, &["--trace", "0"], true) {
                    Ok(r) => {
                        ok &= r.correct;
                        set.push(r);
                    }
                    Err(e) => {
                        println!("FAILED: {e}");
                        ok = false;
                    }
                }
            }
        }
        for (name, unit, better, bound) in END_TO_END {
            let column = |set: &[ChildResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (Some(ma), Some(mb)) = (median(&a), median(&b)) else {
                println!("{:<16} {name:<22} missing", w.name);
                ok = false;
                continue;
            };
            let worse = if better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let spread = quartile_spread(&all).unwrap_or(0.0);
            let verdict = if worse > bound { "FAIL" } else { "ok" };
            ok &= worse <= bound;
            println!(
                "{:<16} {name:<22} A {ma:>14.4} B {mb:>14.4} {unit:<6} worse by {:>7.3}% (bound {:>4.1}%) spread {:>6.3}% {verdict}",
                w.name,
                100.0 * worse,
                100.0 * bound,
                100.0 * spread
            );
            rows.push(obj([
                ("workload", w.name.into()),
                ("metric", name.into()),
                ("set_a", ma.into()),
                ("set_b", mb.into()),
                ("worse_by", worse.into()),
                ("bound", bound.into()),
                ("quartile_spread", spread.into()),
            ]));
        }
    }
    let dir = out_dir(&args.label);
    let path = dir.join("repeat.json");
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, Json::Arr(rows).to_pretty()))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("roundbench: could not write {}: {e}", path.display()),
    }
    println!(
        "{}",
        if ok {
            "roundbench: REPEAT OK"
        } else {
            "roundbench: REPEAT FAILED"
        }
    );
    exit(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("roundbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return exit(selftest::run());
    }
    if args.verify_repeat {
        return run_verify_repeat(&args);
    }
    match args.workload.as_deref() {
        None | Some("all") if args.smoke => run_smoke(&args),
        Some("all") if !args.smoke => run_all(&args),
        Some(name) => match workloads::find(name) {
            Some(w) => {
                let mode = if args.smoke {
                    Mode::Smoke
                } else if args.trace {
                    Mode::Traced
                } else {
                    Mode::EndToEnd
                };
                run_one(w, &args, mode)
            }
            None => {
                eprintln!("roundbench: unknown workload {name}\n{}", usage());
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
