#!/usr/bin/env bash
# Contention harness: reruns the scheduling-sensitive suites — the TCP
# deployment goldens and the collector's exhaustive interleaving sweep —
# N times while two busy-loop processes saturate the cores. The goldens
# assert their own wall time stays under the phase deadline, so a stalled
# phase fails here instead of passing slowly.
#
#   scripts/contention.sh [N]      (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${1:-5}"

cargo test -q --release --no-run --test net_golden
cargo test -q --release --no-run -p fedomd-core --test interleaving

BURNERS=()
cleanup() {
    [[ "${#BURNERS[@]}" -gt 0 ]] && kill "${BURNERS[@]}" 2>/dev/null || true
}
trap cleanup EXIT
for _ in 1 2; do
    ( while :; do :; done ) &
    BURNERS+=($!)
done

for i in $(seq 1 "$RUNS"); do
    echo "contention: run $i/$RUNS"
    cargo test -q --release --test net_golden
    cargo test -q --release -p fedomd-core --test interleaving
done
echo "contention: OK ($RUNS runs under 2 busy-loop processes)"
