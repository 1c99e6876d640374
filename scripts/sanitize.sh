#!/usr/bin/env bash
# ThreadSanitizer pass over the concurrency-heavy test subset.
#
#   scripts/sanitize.sh
#
# Runs the tests that exercise real threads and channels — the TCP
# deployment golden tests (`net_golden`) and the collector's exhaustive
# interleaving sweep — under TSan. TSan needs a
# nightly toolchain with the rust-src component (`-Z build-std` rebuilds
# std with instrumentation); when none is installed this script prints a
# clear skip message and exits 0, so it is safe to wire as a non-blocking
# CI job and as a local convenience on stable-only machines.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
    echo "sanitize: no nightly toolchain installed; skipping TSan pass" \
         "(install with: rustup toolchain install nightly --component rust-src)"
    exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src (installed)'; then
    echo "sanitize: nightly lacks rust-src; skipping TSan pass" \
         "(install with: rustup component add rust-src --toolchain nightly)"
    exit 0
fi

host="$(rustc -vV | sed -n 's/^host: //p')"
echo "sanitize: running TSan on ${host}"

# TSan flags an allocator/runtime race pattern in pure-Rust code rarely;
# suppressions would go here. One test thread at a time keeps reports
# readable and avoids cross-test noise.
export RUSTFLAGS="-Z sanitizer=thread"
export RUSTDOCFLAGS="-Z sanitizer=thread"
export TSAN_OPTIONS="halt_on_error=1"

run() {
    echo "sanitize: $*"
    cargo +nightly test -Z build-std --target "${host}" "$@" -- --test-threads=1
}

# The TCP deployment: thread-per-connection readers, acceptor, bounded
# inbound queue, generation-stamped eviction.
run -p fedomd-suite --test net_golden
# The server collector's reorder window: the exhaustive n ≤ 5 sweep.
run -p fedomd-core --test interleaving

echo "sanitize: OK"
