#!/usr/bin/env bash
# Multi-process deployment smoke test: one `fedomd-server` and three
# `fedomd-client` OS processes train a short cora-mini run over TCP on
# 127.0.0.1 and must all exit 0. This is the only tier-1 check that
# crosses a real process boundary — the loopback golden tests
# (tests/net_golden.rs) run the same entry points from threads.
#
#   scripts/net_smoke.sh
#
# NET_SMOKE_ROUNDS overrides the round budget (default 4).
set -euo pipefail
cd "$(dirname "$0")/.."

ROUNDS="${NET_SMOKE_ROUNDS:-4}"
BIN=target/release

cargo build -q --release -p fedomd-net

SERVER=""
CLIENTS=()
cleanup() {
    [[ -n "$SERVER" ]] && kill "$SERVER" 2>/dev/null || true
    [[ "${#CLIENTS[@]}" -gt 0 ]] && kill "${CLIENTS[@]}" 2>/dev/null || true
}
trap cleanup EXIT

# Probe a few ports in the dynamic range: a server that dies within the
# first half second hit a bind conflict, so move on to the next candidate.
ADDR=""
for _try in 1 2 3 4 5; do
    port=$((21000 + (RANDOM % 20000)))
    timeout 240 "$BIN/fedomd-server" --addr "127.0.0.1:$port" --clients 3 \
        --rounds "$ROUNDS" --phase-timeout-ms 10000 --quiet &
    SERVER=$!
    sleep 0.5
    if kill -0 "$SERVER" 2>/dev/null; then
        ADDR="127.0.0.1:$port"
        break
    fi
    wait "$SERVER" 2>/dev/null || true
    SERVER=""
done
if [[ -z "$ADDR" ]]; then
    echo "net_smoke: could not start fedomd-server on any probed port" >&2
    exit 1
fi

for id in 0 1 2; do
    timeout 240 "$BIN/fedomd-client" --addr "$ADDR" --id "$id" --clients 3 \
        --rounds "$ROUNDS" --phase-timeout-ms 10000 --quiet &
    CLIENTS+=($!)
done

fail=0
if ! wait "$SERVER"; then
    echo "net_smoke: fedomd-server failed" >&2
    fail=1
fi
SERVER=""
for i in "${!CLIENTS[@]}"; do
    if ! wait "${CLIENTS[$i]}"; then
        echo "net_smoke: fedomd-client $i failed" >&2
        fail=1
    fi
done
CLIENTS=()
trap - EXIT

if [[ "$fail" -ne 0 ]]; then
    exit 1
fi
echo "net_smoke: OK (1 server + 3 clients over 127.0.0.1, $ROUNDS rounds)"
