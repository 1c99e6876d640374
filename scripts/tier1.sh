#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
#   scripts/tier1.sh
#
# Builds the whole workspace in release mode and runs the full test
# suite. If rustfmt / clippy are installed, formatting and lints are
# checked too (skipped with a note otherwise so the gate still works on
# minimal toolchains).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
# --no-fail-fast: one red test binary must never hide the rest.
cargo test -q --workspace --no-fail-fast
# Massive-cohort smoke (DESIGN.md §15): a 2000-party planted federation
# completes sampled rounds with streaming aggregation. Ignored by default
# (it is release-speed work), run explicitly here in release mode.
cargo test -q --release --test end_to_end -- --ignored
# Benches are tier-1 compile targets: a PR must not break them even if it
# never runs them (perf runs go through scripts/bench.sh).
cargo bench --workspace --no-run

# Workspace invariant checker (DESIGN.md §13, §17): unsafe hygiene,
# serialization determinism, wall-clock confinement, panic-freedom, lock
# discipline, bounded-concurrency hygiene, and protocol exhaustiveness —
# plus a drift check that UNSAFE_INVENTORY.md still matches the unsafe
# sites in the tree.
cargo run -q --release -p fedomd-lint -- --check
cargo run -q --release -p fedomd-lint -- --inventory --check

# Exhaustive interleaving sweep (DESIGN.md §17): every arrival permutation
# and straggler subset for cohorts n ≤ 5 folds bit-identically to the
# sort-by-sender oracle through the server collector.
# (Already part of `cargo test --workspace` above; run explicitly so a
# sweep failure is attributable at a glance. n = 6 stays `--ignored`.)
cargo test -q --release -p fedomd-core --test interleaving

# Contention step (DESIGN.md §16): the TCP goldens and the interleaving
# sweep must hold with both cores saturated, not just on a quiet box.
# The goldens fail on wall time if any phase sits out its deadline.
scripts/contention.sh 5

# Multi-process deployment smoke (DESIGN.md §14): 1 fedomd-server and
# 3 fedomd-client OS processes complete a short run over 127.0.0.1.
scripts/net_smoke.sh

# The round-level benchmark (BENCHMARK.json) is a package of its own, so
# the workspace build above does not cover it: build it offline and run
# its self-checks (metric plumbing, then one tiny pass over every
# workload).
cargo build --release --offline --manifest-path examples/roundbench/Cargo.toml
cargo run -q --release --offline --manifest-path examples/roundbench/Cargo.toml -- --selftest
cargo run -q --release --offline --manifest-path examples/roundbench/Cargo.toml -- --smoke

if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "tier1: rustfmt unavailable, skipping cargo fmt --check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "tier1: clippy unavailable, skipping cargo clippy"
fi

echo "tier1: OK"
