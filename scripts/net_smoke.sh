#!/usr/bin/env bash
# Multi-process deployment smoke test: one `fedomd-server` and three
# `fedomd-client` OS processes train a short cora-mini run over TCP on
# 127.0.0.1 and must all exit 0. Two refusal legs ride along: a client
# launched with another `--beta` must exit 1 naming `beta`, and a server
# resumed from the run's checkpoint with another `--lr` must exit 1
# naming `lr`. This is the only tier-1 check that crosses a real process
# boundary — the loopback golden tests (tests/net_golden.rs) run the same
# entry points from threads.
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
WORK="$(mktemp -d)"
cleanup() {
    [[ -n "$SERVER" ]] && kill "$SERVER" 2>/dev/null || true
    [[ "${#CLIENTS[@]}" -gt 0 ]] && kill "${CLIENTS[@]}" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# Probe a few ports in the dynamic range: a server that dies within the
# first half second hit a bind conflict, so move on to the next candidate.
ADDR=""
for _try in 1 2 3 4 5; do
    port=$((21000 + (RANDOM % 20000)))
    timeout 240 "$BIN/fedomd-server" --addr "127.0.0.1:$port" --parties 3 \
        --rounds "$ROUNDS" --checkpoint "$WORK/fed.ckpt" --checkpoint_every 1 \
        --phase_timeout_ms 10000 --quiet &
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

# Expects `$1` to have exited 1 with `$2` named on its stderr (`$3`).
refused() {
    local code="$1" key="$2" log="$3"
    if [[ "$code" -ne 1 ]] || ! grep -q "\`$key\` differs" "$log"; then
        echo "net_smoke: expected exit 1 naming \`$key\`, got exit $code:" >&2
        cat "$log" >&2
        return 1
    fi
}

fail=0
code=0
timeout 60 "$BIN/fedomd-client" --addr "$ADDR" --id 0 --parties 3 --beta 2 \
    --rounds "$ROUNDS" --quiet 2>"$WORK/beta.log" || code=$?
refused "$code" beta "$WORK/beta.log" || fail=1

for id in 0 1 2; do
    timeout 240 "$BIN/fedomd-client" --addr "$ADDR" --id "$id" --parties 3 \
        --rounds "$ROUNDS" --phase_timeout_ms 10000 --quiet &
    CLIENTS+=($!)
done

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

code=0
timeout 60 "$BIN/fedomd-server" --addr 127.0.0.1:0 --parties 3 --rounds "$ROUNDS" \
    --resume "$WORK/fed.ckpt" --checkpoint "$WORK/lr.ckpt" --lr 0.05 --quiet 2>"$WORK/lr.log" || code=$?
refused "$code" lr "$WORK/lr.log" || fail=1

if [[ "$fail" -ne 0 ]]; then
    exit 1
fi
echo "net_smoke: OK (1 server + 3 clients over 127.0.0.1, $ROUNDS rounds; --beta and --lr refused)"
