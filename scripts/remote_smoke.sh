#!/bin/sh
# End-to-end smoke for the stmd/stmbench remote path: start stmd on a
# scratch port with four STM threads and a quota-limited tenant, drive
# it with many more connections than threads, then SIGTERM and require a
# clean drain (stmd exits nonzero if any reclaim extents stay quarantined).
#
# Env knobs: GO (toolchain), ADDR (listen address), CONNS, DUR, OUT (JSON).
set -eu

GO="${GO:-go}"
ADDR="${ADDR:-127.0.0.1:7571}"
CONNS="${CONNS:-200}"
DUR="${DUR:-2s}"
OUT="${OUT:-/tmp/remote_smoke.json}"
BIN="$(mktemp -t stmd.XXXXXX)"
LOG="$(mktemp -t stmd.log.XXXXXX)"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -f "$BIN"
}
trap cleanup EXIT

"$GO" build -o "$BIN" ./cmd/stmd
"$BIN" -addr "$ADDR" -workers 4 -maxconns 4096 \
    -tenant 'noisy:ws=4' >"$LOG" 2>&1 &
pid=$!

# Wait for the listener (the startup line prints once the port is bound).
i=0
until grep -q 'serving' "$LOG"; do
    i=$((i + 1))
    if [ "$i" -gt 50 ] || ! kill -0 "$pid" 2>/dev/null; then
        echo "remote-smoke: stmd failed to start" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

"$GO" run ./cmd/stmbench -remote "$ADDR" -conns "$CONNS" -dur "$DUR" \
    -zipf 0.8 -tenants 'noisy:1,steady:3' -json "$OUT"

kill -TERM "$pid"
wait "$pid" # stmd exits 1 on a dirty drain (quarantined extents)
pid=""
cat "$LOG"

# The run must have committed transactions and attributed quota aborts to
# the capped tenant; transport errors mean connections died mid-run.
grep -q '"remote_conns": '"$CONNS" "$OUT" || {
    echo "remote-smoke: missing remote_conns=$CONNS in $OUT" >&2
    exit 1
}
if grep -q '"commits": 0,' "$OUT"; then
    echo "remote-smoke: zero committed transactions" >&2
    exit 1
fi
grep -q '"remote_transport_errs"' "$OUT" && {
    echo "remote-smoke: transport errors during the run" >&2
    exit 1
}
grep -q '"noisy"' "$OUT" || {
    echo "remote-smoke: no quota aborts attributed to tenant noisy" >&2
    exit 1
}
echo "remote-smoke: OK ($CONNS conns on 4 STM threads, JSON in $OUT)"
