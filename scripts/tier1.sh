#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
#   scripts/tier1.sh
#
# Builds the whole workspace in release mode, runs the full test suite
# (including the UNSAFE_INVENTORY.md drift test) and the workspace lints
# (DESIGN.md §13). rustfmt is checked when installed.
#
# Each step prints as its own collapsible `::group::` in a GitHub Actions
# log (plain text elsewhere), so a failure stays attributable to the step
# that caused it while CI runs every step exactly once, through this
# script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "::group::Release build"
cargo build --release --workspace
echo "::endgroup::"

echo "::group::Workspace tests"
# --no-fail-fast: one red test binary must never hide the rest.
cargo test -q --workspace --no-fail-fast
echo "::endgroup::"

echo "::group::Massive-cohort smoke (2000-party sampled rounds)"
# DESIGN.md §15: a 2000-party planted federation completes sampled rounds
# with streaming aggregation. Ignored by default (it is release-speed
# work), run explicitly here in release mode.
cargo test -q --release --test end_to_end -- --ignored
echo "::endgroup::"

echo "::group::Benches compile"
# Benches are tier-1 compile targets: a PR must not break them even if it
# never runs them (perf runs go through scripts/bench.sh).
cargo bench --workspace --no-run
echo "::endgroup::"

echo "::group::Table binaries smoke (table3, fedomd_run, checkpoint, examples)"
# Table 3's client / server / inference columns are the runs' PhaseDone
# segments folded by fedomd_bench::PhaseTotals; run the two binaries that
# print them so that path is exercised end to end.
cargo run -q --release -p fedomd-bench --bin table3 -- --quick --seeds 1
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --rounds 2
# A run checkpoint through the binary (DESIGN.md §11): save every round,
# then resume the two-round snapshot into a four-round run.
ckpt_dir=$(mktemp -d)
cargo run -q --release -p fedomd-bench --bin fedomd_run -- \
    --rounds 2 --checkpoint "$ckpt_dir/run.ckpt" --checkpoint-every 1
cargo run -q --release -p fedomd-bench --bin fedomd_run -- \
    --rounds 4 --resume "$ckpt_dir/run.ckpt"
# The FedAvg family on the shared round: FedProx's two local passes and
# proximal anchor through a checkpoint that tracks the global model and a
# resume, and LocGCN's round without a weight exchange.
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --algo fedprox \
    --rounds 2 --checkpoint "$ckpt_dir/p.ckpt" --checkpoint-every 1
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --algo fedprox \
    --rounds 4 --resume "$ckpt_dir/p.ckpt"
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --algo locgcn --rounds 2
# The baselines that used to run their own loops: SCAFFOLD's SGD velocity
# and control variates through a checkpoint and a resume, and FedLIT's and
# FedSage+'s set-up exchanges on the shared round.
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --algo scaffold \
    --rounds 2 --checkpoint "$ckpt_dir/s.ckpt" --checkpoint-every 1
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --algo scaffold \
    --rounds 4 --resume "$ckpt_dir/s.ckpt"
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --algo fedlit --rounds 2
cargo run -q --release -p fedomd-bench --bin fedomd_run -- --algo fedsage+ --rounds 2
rm -rf "$ckpt_dir"
# Serves the global model of a reloaded run checkpoint and checks it
# against the checkpointed client copy bit for bit.
cargo run -q --release --example train_and_checkpoint
# A FedOMD run over the simulated lossy network: retries from the
# transport, sent and lost frames from the telemetry trace.
cargo run -q --release --example lossy_network
echo "::endgroup::"

echo "::group::Workspace invariant lints (clippy)"
# DESIGN.md §13: unsafe hygiene, unordered maps, wall-clock reads,
# unjoined threads, unbounded queues, panics and protocol wildcards are
# rustc/clippy lints, configured in the crate roots, the root Cargo.toml
# and clippy.toml.
cargo clippy --workspace --all-targets -- -D warnings
echo "::endgroup::"

echo "::group::Exhaustive fold interleaving sweep (n ≤ 6)"
# DESIGN.md §17: every arrival permutation and straggler subset for
# cohorts n ≤ 6 folds bit-identically to the sort-by-sender oracle
# through the server collector. (The n ≤ 5 sweeps are also part of the
# workspace tests, in debug; the n = 6 sweep, 3,914 collector runs, is
# `#[ignore]`d there and runs here, in release, with the rest.)
cargo test -q --release -p fedomd-core --test interleaving -- --include-ignored
echo "::endgroup::"

echo "::group::Worker count is invisible (the client pool at 1, 2 and 4 workers)"
# DESIGN.md §8: the pool's properties (index order, uneven items, empty
# and 1-item slices, a panicking item), and whole runs of FedOMD, FedGCN,
# SCAFFOLD, FedSage+, FedLIT and a cohort-sampled federation giving the
# same result bits and event stream at 1, 2 and 4 workers. (Also part of
# the workspace tests; this is the release build.)
cargo test -q --release -p fedomd-tensor par::
cargo test -q --release -p fedomd-federated --lib same_at_any_worker_count
echo "::endgroup::"

echo "::group::Sparse input layer equals the dense product (1024 cases)"
# DESIGN.md §12: the CSR first layer's forward and weight gradient are
# bit-identical to the dense GEMM dispatcher and the reference kernels,
# non-finite weights and gradients (the densify fallback) included. (Also part of the workspace
# tests at the stub's default 64 cases; this is the release build.)
PROPTEST_CASES=1024 cargo test -q --release -p fedomd-autograd csr_matmul_is_the_dense_product
echo "::endgroup::"

echo "::group::A stacked evaluation is each shard's forward (1024 cases)"
# DESIGN.md §4: `Model::infer` on a `GraphInput::stack` of 1-6 shards
# gives, on each shard's rows, the bits of that shard's taped forward, for
# all four models, with CSR and dense `Ŝ·X` operands mixed in one stack.
# (Also part of the workspace tests at the stub's default 64 cases; this
# is the release build.)
PROPTEST_CASES=1024 cargo test -q --release -p fedomd-nn stacked_infer_is_each_shards_forward
echo "::endgroup::"

echo "::group::CSR weight-gradient scatter equals SpMM on the transpose (1024 cases)"
# DESIGN.md §12: `Csr::spmm_t_into` scatters Aᵀ·G from A's rows without
# storing the transpose, and is bit-identical to `A.transpose().spmm(G)`:
# empty rows and columns, stored ±0.0, NaN/±inf in G, any width. (Also
# part of the workspace tests at the stub's default 64 cases; this is the
# release build.)
PROPTEST_CASES=1024 cargo test -q --release -p fedomd-sparse prop_spmm_t_into_is_the_transposed_spmm
echo "::endgroup::"

echo "::group::SpMM and GEMM kernels match their references (1024 cases)"
# DESIGN.md §12: the register-blocked SpMM and the packed and direct-tn
# GEMM kernels are `to_bits` equal to their serial references (up to which
# NaN survives where two different NaNs meet; strictly on finite
# operands, zero-heavy ones included), and the GEMM kernels agree with the
# naive product on non-finite inputs. (Also part of the workspace tests at
# the stub's default 64 cases; this is the release build.)
PROPTEST_CASES=1024 cargo test -q --release -p fedomd-sparse -- \
    prop_spmm_bitwise_matches_ref prop_spmm_matches_ref_up_to_which_nan
PROPTEST_CASES=1024 cargo test -q --release -p fedomd-tensor -- \
    prop_kernels_match_naive_on_nonfinite_inputs prop_packed_bitwise_matches_ref \
    prop_tn_direct_bitwise_matches_ref
echo "::endgroup::"

echo "::group::Frame codec: exact lengths and canonical frames (1024 cases)"
# DESIGN.md §9: every envelope roundtrips at exactly `encoded_len()` bytes,
# and every frame the decoder accepts is the one `encode` writes for what
# it decoded, so a received frame's size is its envelope's `encoded_len()`.
PROPTEST_CASES=1024 cargo test -q --release -p fedomd-transport --test codec_props -- \
    encode_decode_roundtrips_exactly every_accepted_frame_is_the_one_encode_writes
echo "::endgroup::"

echo "::group::SimNet faults do not depend on send order (1024 cases)"
# DESIGN.md §9: a frame's drops and arrival time are keyed by the frame
# (round, link, kind, k), so one phase's uploads and downloads sent in any
# order meet the same fate. (Also part of the workspace tests at the
# stub's default 64 cases; this is the release build.)
PROPTEST_CASES=1024 cargo test -q --release -p fedomd-transport a_frames_fate_does_not_depend_on_send_order
echo "::endgroup::"

echo "::group::Contention step (net_golden, interleaving, determinism, telemetry goldens under load)"
# DESIGN.md §16: the TCP goldens, the interleaving sweep and the
# in-process determinism and telemetry goldens must hold with both cores
# saturated, not just on a quiet box. The TCP goldens fail on wall time if
# any phase sits out its deadline.
scripts/contention.sh 5
echo "::endgroup::"

echo "::group::Multi-process deployment smoke (fedomd-server + 3 clients)"
# DESIGN.md §14: 1 fedomd-server and 3 fedomd-client OS processes
# complete a short run over 127.0.0.1.
scripts/net_smoke.sh
echo "::endgroup::"

echo "::group::roundbench builds offline and passes its self-checks"
# The round-level benchmark (BENCHMARK.json) is a package of its own, so
# the workspace build above does not cover it: build it offline and run
# its self-checks (metric plumbing, then one tiny pass over every
# workload).
cargo build --release --offline --manifest-path examples/roundbench/Cargo.toml
cargo run -q --release --offline --manifest-path examples/roundbench/Cargo.toml -- --selftest
cargo run -q --release --offline --manifest-path examples/roundbench/Cargo.toml -- --smoke
echo "::endgroup::"

echo "::group::Formatting"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "tier1: rustfmt unavailable, skipping cargo fmt --check"
fi
echo "::endgroup::"

echo "tier1: OK"
