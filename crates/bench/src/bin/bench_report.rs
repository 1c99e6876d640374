//! Folds benchmark output into the repo's two perf trajectories.
//!
//! ```text
//! bench_report --label change-after --jsonl /tmp/bench.jsonl \
//!     [--out BENCH_kernels.json] [--notes "free text"]
//! bench_report --label change-after --round /tmp/round.jsonl --seed 0 --seconds 10 \
//!     [--out BENCH_round.json] [--benchmark BENCHMARK.json] [--notes "free text"]
//! ```
//!
//! **Kernels** (`--jsonl`): the vendored criterion stub appends one JSON
//! object per benchmark (`{"label":…,"mean_ns":…,"min_ns":…,"median_ns":…,
//! "iters":…}`) to the file named by `CRITERION_JSON`; `median_ns` is
//! optional so older captures still parse. The lines become one run of
//! `BENCH_kernels.json`.
//!
//! **Rounds** (`--round`): one line per roundbench run,
//! `{"workload":…,"trace":0|1,"result":…}`, where `result` is the JSON line
//! roundbench prints last (`correct`, `attempted`, `failed`, `metrics`). The
//! lines become one run of `BENCH_round.json`, each workload holding its
//! `trace0` (end-to-end) and `trace1` (per-layer) pass as flat
//! `name → value` maps in the units `BENCHMARK.json` declares. A line
//! whose run was not `correct`, or whose `--trace 0` pass lacks one of
//! `BENCHMARK.json`'s end-to-end metrics, is refused and nothing is
//! written.
//!
//! In both files runs are keyed by label: re-running with the same label
//! replaces the run in place, so a trajectory stays one entry per labelled
//! state of the code rather than an append-only log of every invocation.
//! `scripts/bench.sh` drives both.

use std::process::ExitCode;

use fedomd_federated::Flags;
use fedomd_jsonio::Json;

/// Parses the stub's JSONL into `(bench_label, record)` pairs. Later
/// duplicates win, so re-run suites within one collection overwrite.
fn parse_jsonl(text: &str) -> Result<Vec<(String, Json)>, String> {
    let mut benches: Vec<(String, Json)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let label = doc
            .get("label")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing label", lineno + 1))?
            .to_string();
        let mut rec = Vec::new();
        for key in ["mean_ns", "min_ns", "iters"] {
            let v = doc
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: missing {key}", lineno + 1))?;
            rec.push((key.to_string(), Json::Num(v)));
        }
        // Optional: older captures carry no median.
        if let Some(v) = doc.get("median_ns").and_then(Json::as_f64) {
            rec.push(("median_ns".to_string(), Json::Num(v)));
        }
        benches.retain(|(l, _)| *l != label);
        benches.push((label, Json::Obj(rec)));
    }
    if benches.is_empty() {
        return Err("no benchmark records found in JSONL input".into());
    }
    Ok(benches)
}

/// The end-to-end metric names `BENCHMARK.json` declares.
fn end_to_end_names(benchmark: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = Json::parse(benchmark)?
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    if names.is_empty() {
        return Err("no end_to_end metrics declared".into());
    }
    Ok(names)
}

/// Folds roundbench lines (see the module docs) into one run's
/// `workloads` object: workload → `{"trace0": …, "trace1": …}`, in first-
/// seen order. A later line for the same workload and pass wins.
fn fold_round(text: &str, end_to_end: &[String]) -> Result<Json, String> {
    let mut workloads: Vec<(String, Vec<(String, Json)>)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", lineno + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing workload"))?;
        let trace = doc
            .get("trace")
            .and_then(Json::as_u64)
            .filter(|&t| t <= 1)
            .ok_or_else(|| at("trace must be 0 or 1"))?;
        let at = |what: &str| at(&format!("{workload} --trace {trace}: {what}"));
        let result = doc.get("result").ok_or_else(|| at("missing result"))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(at("roundbench did not report correct: true"));
        }
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_u64)
                .map(|v| (key.to_string(), Json::Num(v as f64)))
                .ok_or_else(|| at(&format!("missing {key}")))
        };
        let mut pass = vec![count("attempted")?, count("failed")?];
        let metrics: Vec<(String, Json)> = result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), Json::Num(m.get("value")?.as_f64()?))))
            .collect();
        if metrics.is_empty() {
            return Err(at("no metrics"));
        }
        if trace == 0 {
            // roundbench prints 0 for a metric it has no value for, and no
            // end-to-end metric is 0 by design.
            for name in end_to_end {
                let value = metrics.iter().find(|(n, _)| n == name);
                if !value.and_then(|(_, v)| v.as_f64()).is_some_and(|v| v > 0.0) {
                    return Err(at(&format!("end-to-end metric {name} missing or 0")));
                }
            }
        }
        pass.push(("metrics".to_string(), Json::Obj(metrics)));
        let key = format!("trace{trace}");
        let i = match workloads.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                workloads.push((workload.to_string(), Vec::new()));
                workloads.len() - 1
            }
        };
        let slot = &mut workloads[i].1;
        slot.retain(|(k, _)| *k != key);
        slot.push((key, Json::Obj(pass)));
        slot.sort_by(|a, b| a.0.cmp(&b.0));
    }
    if workloads.is_empty() {
        return Err("no roundbench results found in input".into());
    }
    Ok(Json::Obj(
        workloads
            .into_iter()
            .map(|(w, passes)| (w, Json::Obj(passes)))
            .collect(),
    ))
}

/// `existing` (a trajectory file's text, if any) with `run` stored under
/// its label: in place of a run of the same label, else appended.
fn upsert_run(
    existing: Option<&str>,
    header: Vec<(String, Json)>,
    run: Json,
) -> Result<Json, String> {
    let mut runs: Vec<Json> = match existing {
        Some(text) => Json::parse(text)
            .map_err(|e| format!("cannot parse the existing trajectory: {e}"))?
            .get("runs")
            .and_then(Json::as_array)
            .map(<[Json]>::to_vec)
            .unwrap_or_default(),
        None => Vec::new(),
    };
    let label = run.get("label").and_then(Json::as_str);
    match runs
        .iter_mut()
        .find(|r| r.get("label").and_then(Json::as_str) == label)
    {
        Some(slot) => *slot = run,
        None => runs.push(run),
    }
    let mut doc = header;
    doc.push(("runs".to_string(), Json::Arr(runs)));
    Ok(Json::Obj(doc))
}

fn run() -> Result<(), String> {
    let mut flags = Flags::parse(std::env::args().skip(1), &[])?;
    let label: String = flags.take("label")?.ok_or("--label is required")?;
    let notes: Option<String> = flags.take("notes")?;
    let kernels: Option<String> = flags.take("jsonl")?;
    let round: Option<String> = flags.take("round")?;
    let seed: Option<f64> = flags.take("seed")?;
    let seconds: Option<f64> = flags.take("seconds")?;
    let benchmark = flags.take_or("benchmark", "BENCHMARK.json".to_string())?;
    let out: Option<String> = flags.take("out")?;
    flags.finish()?;
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let str_field = |k: &str, v: &str| (k.to_string(), Json::Str(v.to_string()));
    let mut run = vec![str_field("label", &label)];
    if let Some(notes) = &notes {
        run.push(str_field("notes", notes));
    }
    let (default_out, header) = match (kernels, round) {
        (Some(jsonl), None) => {
            let benches = parse_jsonl(&read(&jsonl)?)?;
            run.push(("benches".to_string(), Json::Obj(benches)));
            let header = vec![
                str_field("schema", "fedomd-bench-trajectory/v1"),
                str_field("unit", "ns/iter"),
            ];
            ("BENCH_kernels.json", header)
        }
        (None, Some(jsonl)) => {
            let seed = seed.ok_or("--round requires --seed")?;
            let seconds = seconds.ok_or("--round requires --seconds")?;
            let names =
                end_to_end_names(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
            let workloads = fold_round(&read(&jsonl)?, &names)?;
            run.push(("seed".to_string(), Json::Num(seed)));
            run.push(("seconds".to_string(), Json::Num(seconds)));
            run.push(("workloads".to_string(), workloads));
            let header = vec![
                str_field("schema", "fedomd-round-trajectory/v1"),
                str_field("unit", "per metric, as BENCHMARK.json declares"),
            ];
            ("BENCH_round.json", header)
        }
        _ => return Err("exactly one of --jsonl and --round is required".into()),
    };
    let out = out.as_deref().unwrap_or(default_out);
    let existing = std::fs::read_to_string(out).ok();
    let doc = upsert_run(existing.as_deref(), header, Json::Obj(run))
        .map_err(|e| format!("{out}: {e}"))?;
    let mut body = doc.to_pretty();
    body.push('\n');
    std::fs::write(out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("bench_report: wrote run '{label}' to {out}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e() -> Vec<String> {
        vec!["setup_s".to_string(), "round_ms_p50".to_string()]
    }

    fn line(workload: &str, trace: u8, correct: bool, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"ms\"}}"))
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":{trace},\"result\":{{\"correct\":{correct},\
             \"attempted\":40,\"failed\":0,\"metrics\":{{{}}}}}}}",
            metrics.join(",")
        )
    }

    fn run_of(label: &str, text: &str) -> Json {
        Json::Obj(vec![
            ("label".to_string(), Json::Str(label.to_string())),
            ("workloads".to_string(), fold_round(text, &e2e()).unwrap()),
        ])
    }

    #[test]
    fn a_rerun_label_replaces_its_run_in_place() {
        let full = [("setup_s", 0.03), ("round_ms_p50", 25.0)];
        let a = run_of("a", &line("cora_paper", 0, true, &full));
        let b = run_of("b", &line("cora_paper", 0, true, &full));
        let first = upsert_run(None, Vec::new(), a).unwrap().to_compact();
        let both = upsert_run(Some(&first), Vec::new(), b)
            .unwrap()
            .to_compact();
        let faster = [("setup_s", 0.03), ("round_ms_p50", 20.0)];
        let a2 = run_of("a", &line("cora_paper", 0, true, &faster));
        let doc = upsert_run(Some(&both), Vec::new(), a2).unwrap();
        let runs = doc.get("runs").and_then(Json::as_array).unwrap();
        let labels: Vec<_> = runs
            .iter()
            .map(|r| r.get("label").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(labels, ["a", "b"], "replaced in place, not appended");
        let p50 = |r: &Json| {
            r.get("workloads")
                .and_then(|w| w.get("cora_paper"))
                .and_then(|w| w.get("trace0"))
                .and_then(|p| p.get("metrics"))
                .and_then(|m| m.get("round_ms_p50"))
                .and_then(Json::as_f64)
        };
        assert_eq!(p50(&runs[0]), Some(20.0));
        assert_eq!(p50(&runs[1]), Some(25.0));
    }

    #[test]
    fn both_passes_of_a_workload_land_side_by_side() {
        let text = [
            line("mini_tcp", 1, true, &[("net.join_ms", 1.5)]),
            line(
                "mini_tcp",
                0,
                true,
                &[("setup_s", 0.01), ("round_ms_p50", 1.4)],
            ),
        ]
        .join("\n");
        let w = fold_round(&text, &e2e()).unwrap();
        let passes: Vec<_> = w
            .get("mini_tcp")
            .and_then(Json::as_object)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(passes, ["trace0", "trace1"]);
        let attempted = w
            .get("mini_tcp")
            .and_then(|p| p.get("trace1"))
            .and_then(|p| p.get("attempted"))
            .and_then(Json::as_u64);
        assert_eq!(attempted, Some(40));
    }

    #[test]
    fn an_incorrect_run_is_refused() {
        let full = [("setup_s", 0.03), ("round_ms_p50", 25.0)];
        let err = fold_round(&line("cora_paper", 0, false, &full), &e2e()).unwrap_err();
        assert!(err.contains("correct"), "{err}");
        let err = fold_round(&line("cora_paper", 1, false, &full), &e2e()).unwrap_err();
        assert!(err.contains("correct"), "{err}");
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_is_refused() {
        let err =
            fold_round(&line("cora_paper", 0, true, &[("setup_s", 0.03)]), &e2e()).unwrap_err();
        assert!(err.contains("round_ms_p50"), "{err}");
        let zero = [("setup_s", 0.03), ("round_ms_p50", 0.0)];
        let err = fold_round(&line("cora_paper", 0, true, &zero), &e2e()).unwrap_err();
        assert!(err.contains("round_ms_p50"), "{err}");
        // The traced pass carries the per-layer metrics instead.
        fold_round(
            &line("cora_paper", 1, true, &[("net.join_ms", 1.0)]),
            &e2e(),
        )
        .unwrap();
    }

    #[test]
    fn end_to_end_names_come_from_the_benchmark_declaration() {
        let names = end_to_end_names(
            r#"{"end_to_end":[{"name":"setup_s","unit":"s"},{"name":"peak_rss_mb"}]}"#,
        )
        .unwrap();
        assert_eq!(names, ["setup_s", "peak_rss_mb"]);
        assert!(end_to_end_names("{}").is_err());
    }
}
