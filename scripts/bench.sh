#!/usr/bin/env bash
# Benchmark runner for both perf trajectories:
#
# - kernels: the hot-path Criterion benches under a fixed per-benchmark
#   time budget, folded into BENCH_kernels.json;
# - rounds: BENCHMARK.json's driver command (roundbench) on every workload,
#   one --trace 0 (end-to-end) and one --trace 1 (per-layer) pass each at
#   seed 0 and --seconds 10, folded into BENCH_round.json.
#
#   scripts/bench.sh <run-label> [notes]
#
# e.g.  scripts/bench.sh change-before "the parent commit"
#       scripts/bench.sh change-after  "the change"
#
# Runs are keyed by label; re-running a label replaces that run in place in
# both files. BENCH_BUDGET_MS overrides the per-kernel budget (default
# 1000 ms — fixed here so runs are comparable across invocations; compare
# the median_ns column between runs, the mean swings ±30% on a busy 1-CPU
# box while the many-iteration median holds still). A roundbench run that
# fails its correctness gate stops the round fold: nothing is written to
# BENCH_round.json for that label.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:?usage: scripts/bench.sh <run-label> [notes]}"
NOTES="${2:-}"
SUITES=(gemm spmm cmd)
WORKLOADS=(cora_paper computer_paper wide_tcp mini_tcp cohort_sampled cohort_full fedavg_mini)
SEED=0
SECONDS_PER_RUN=10
# BENCHMARK.json's "command": roundbench builds from this checkout.
ROUNDBENCH=(cargo run --release --quiet --offline --manifest-path examples/roundbench/Cargo.toml --)
LOCK=examples/roundbench/Cargo.lock

NOTES_ARGS=()
if [[ -n "$NOTES" ]]; then
    NOTES_ARGS=(--notes "$NOTES")
fi

export CRITERION_BUDGET_MS="${BENCH_BUDGET_MS:-1000}"
WORK="$(mktemp -d /tmp/fedomd_bench.XXXXXX)"
# Building roundbench in place may rewrite its lock file (it lists patches
# no crate uses); the script leaves the file exactly as it found it.
cp "$LOCK" "$WORK/Cargo.lock"
trap 'cp "$WORK/Cargo.lock" "$LOCK"; rm -rf "$WORK"' EXIT
export CRITERION_JSON="$WORK/kernels.jsonl"

cargo build --release --workspace
for suite in "${SUITES[@]}"; do
    echo "== bench suite: $suite (budget ${CRITERION_BUDGET_MS} ms/bench)"
    cargo bench -q -p fedomd-bench --bench "$suite"
done
unset CRITERION_JSON
cargo run -q --release -p fedomd-bench --bin bench_report -- \
    --label "$LABEL" --jsonl "$WORK/kernels.jsonl" --out BENCH_kernels.json "${NOTES_ARGS[@]}"

for workload in "${WORKLOADS[@]}"; do
    for trace in 0 1; do
        echo "== roundbench: $workload --trace $trace (seed $SEED, ${SECONDS_PER_RUN} s)"
        # A run that fails its gate still prints its JSON result as the
        # last line, and bench_report refuses it with the reason.
        "${ROUNDBENCH[@]}" --workload "$workload" --seed "$SEED" \
            --seconds "$SECONDS_PER_RUN" --trace "$trace" >"$WORK/out.txt" ||
            echo "roundbench exited with status $?" >&2
        grep -E 'check:|FAILED:' "$WORK/out.txt" || true
        printf '{"workload":"%s","trace":%s,"result":%s}\n' \
            "$workload" "$trace" "$(tail -n 1 "$WORK/out.txt")" >>"$WORK/round.jsonl"
    done
done
cargo run -q --release -p fedomd-bench --bin bench_report -- \
    --label "$LABEL" --round "$WORK/round.jsonl" --seed "$SEED" --seconds "$SECONDS_PER_RUN" \
    --out BENCH_round.json "${NOTES_ARGS[@]}"
