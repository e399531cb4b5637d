#!/usr/bin/env bash
# Repo verification gate: release build, full test suite, clippy- and rustdoc-clean.
#
# Usage: scripts/verify.sh [timeout-seconds]
#
# The whole run is bounded by a wall-clock timeout (default 1800 s) so a
# hung solver or test can never wedge CI — a timeout is a failure, loudly.

set -euo pipefail
cd "$(dirname "$0")/.."

TIMEOUT_S="${1:-1800}"

run() {
    echo "==> $*"
    # Capture the status without `if !` — negation would reset $? to 0.
    local status=0
    timeout --signal=TERM --kill-after=30 "$TIMEOUT_S" "$@" || status=$?
    if [ "$status" -ne 0 ]; then
        if [ "$status" -ge 124 ]; then
            echo "FAILED: '$*' exceeded the ${TIMEOUT_S}s wall-clock budget" >&2
        else
            echo "FAILED: '$*' exited with status $status" >&2
        fi
        exit "$status"
    fi
}

# Offline everywhere: the workspace has no external dependencies and the
# build must not reach for a network that CI may not have.
run cargo build --release --offline --workspace

# Release gates, measured on this tree (about 8 s together). attack_gates
# runs node-capped 118-bus sweeps and a 24-hour six-bus chain and fails
# unless: no sweep leaves a bare heuristic floor and nodes are explored;
# the disabled trace recorder costs the sweep under 2 %; and the warm
# chain repeats every cold answer at a per-hour wall ratio <= 0.35.
# ed-soak fires the seeded chaos mix at an in-process ed-serve and fails
# if the server stops answering or any response breaks a fail-closed
# invariant.
run ./target/release/attack_gates
run ./target/release/ed-soak --requests 120

# Every example runs to completion: `cargo test` only compiles them. Each
# gets 120 s and must exit 0. fault_drill is seeded, so a second run must
# print the same bytes.
run cargo build --release --offline --examples
EXAMPLES_DIR="$(mktemp -d)"
trap 'rm -rf "$EXAMPLES_DIR"' EXIT
run_capped() { # run_capped <label> <binary> <output file>
    echo "==> $1"
    local status=0
    timeout --signal=TERM --kill-after=10 120 "$2" > "$3" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "FAILED: $1 exited with status $status (124 and up: over 120 s)" >&2
        exit 1
    fi
}
for src in examples/*.rs; do
    ex="$(basename "$src" .rs)"
    run_capped "example $ex" "./target/release/examples/$ex" "$EXAMPLES_DIR/$ex.out"
done
run_capped "example fault_drill" ./target/release/examples/fault_drill \
    "$EXAMPLES_DIR/fault_drill.again.out"
cmp "$EXAMPLES_DIR/fault_drill.out" "$EXAMPLES_DIR/fault_drill.again.out" || {
    echo "FAILED: two fault_drill runs printed different output" >&2
    exit 1
}
echo "==> examples OK (fault_drill output repeats byte for byte)"

# The seven paper binaries (Tables I, III, IV; Figures 2, 4, 5, 8) run to
# completion and print the pinned bytes: each gets 120 s, must exit 0, and
# the sha256 of its stdout must match its pin (about 2.5 s together in
# release). A change that legitimately moves a paper number re-pins it
# here, with evidence.
for pin in \
    table1:08952c437e52e849cd2f35bae0cf4ef82055e162251a72b4de76dd99232f81ff \
    table3:8550e249f8fbee8aebf62eb4478e4e2b24b7c81d01bbf83916517644cf1568a3 \
    table4:42fc2f750104b1875b9999f0d4acd3e989e64f7d30e498be2060eb1420718ac0 \
    fig2:1d8d183cc3d582e53d99cfc56eca72a6fcd302943df8e80df74475bdd688a028 \
    fig4:75c608635af6233e26be883c3ea657e2d28a4186dc811df107b714d5ec9531b9 \
    fig5:7ce29bb3c97596b6cde947c719d3c11f3e5503be4c39cae8ed728e630a2a47da \
    fig8:7f0694969f8828eb44ebaa17f80410ed29a03e70c05d843bcfd1aa3939ae5bea; do
    bin="${pin%%:*}"
    want="${pin#*:}"
    run_capped "paper binary $bin" "./target/release/$bin" "$EXAMPLES_DIR/$bin.out"
    got="$(sha256sum "$EXAMPLES_DIR/$bin.out" | cut -d' ' -f1)"
    if [ "$got" != "$want" ]; then
        echo "FAILED: $bin printed stdout with sha256 $got, pinned $want" >&2
        exit 1
    fi
done
rm -rf "$EXAMPLES_DIR"
trap - EXIT
echo "==> paper binaries OK (every stdout matches its sha256 pin)"

# The workspace suite runs twice. Leg 1: the defaults (any switch set in
# the caller's environment is cleared).
run env -u ED_THREADS -u ED_TRACE -u ED_POOL cargo test -q --offline --workspace
# Leg 2: every env switch at a non-default value. None may change an answer:
# - ED_THREADS=4 forces a parallel pool even on a 1-thread host, where the
#   default leg runs sequentially (Algorithm 1 and PTDF assembly promise
#   bit-identical results at any thread count; the tests that pin
#   `threads: Some(1)` keep the sequential path covered);
# - ED_TRACE=1 turns the observability recorder on;
# - ED_POOL=0 disables the two cross-scenario stores (the shared factor
#   pool and serve's sweep-seed pool).
run env ED_THREADS=4 ED_TRACE=1 ED_POOL=0 cargo test -q --offline --workspace
# The answer and tally pins once more in the release profile, the one the
# benchmark and the paper binaries run (about 15 s): the legs above check
# them only in the dev profile, whose optimization levels differ. The
# presolve cross-check rides along: sweep118 and chain118 run presolved.
# So do the 118-bus fill bound and the LU kernel's bit-identity battery
# against dense elimination, in index and in column-count order: the
# simplex factors its bases in count order in every profile.
run env -u ED_THREADS -u ED_TRACE -u ED_POOL cargo test -q --offline --release \
    --test sweep_bits --test sweep_answers --test dispatch_bits --test bb_accounting \
    --test paper_regression --test presolve_roundtrip --test basis_fill
run cargo test -q --offline --release -p ed-linalg --test lu
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc with warnings as errors: an intra-doc link to a deleted, renamed
# or private item fails the gate instead of dangling.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
# The benchmark package (benchmark/) sits outside the workspace, so none of
# the runs above build it: smoke-test it here so an API change in crates/*
# that breaks it fails the gate. --locked also fails if benchmark/Cargo.lock
# would need rewriting.
run cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

# ed-serve smoke test: boot the real binary, hit every endpoint (including
# a fault-injected certify and a contained handler panic), then SIGTERM it
# with a request still in flight and require a drained, zero-status exit.
echo "==> ed-serve smoke test"
SERVE_LOG="$(mktemp)"
DRAIN_OUT="$(mktemp)"
./target/release/ed-serve --addr 127.0.0.1:0 --workers 2 --queue 8 --chaos \
    > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
cleanup_serve() { kill -9 "$SERVE_PID" 2>/dev/null || true; }
trap cleanup_serve EXIT

PORT=""
for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SERVE_LOG" | head -n1)"
    [ -n "$PORT" ] && break
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "FAILED: ed-serve never reported its listen address" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
BASE="http://127.0.0.1:$PORT"

smoke() { # smoke <description> <expected-substring> <curl args...>
    local desc="$1" want="$2"
    shift 2
    local body
    body="$(curl -s --max-time 30 "$@")"
    if ! printf '%s' "$body" | grep -q "$want"; then
        echo "FAILED: smoke '$desc': expected '$want' in: $body" >&2
        exit 1
    fi
}

smoke "healthz" '"status":"ok"' "$BASE/healthz"
smoke "readyz" '"ready":true' "$BASE/readyz"
smoke "metrics" '"service"' "$BASE/metrics"
smoke "clean dispatch passes the gate" '"passed":true' \
    -XPOST -d '{"case":"three_bus"}' "$BASE/dispatch"
smoke "300-bus dispatch answers on rung 1" '"rung":"active-set QP","degraded":false' \
    -XPOST -d '{"case":"case300"}' "$BASE/dispatch"
smoke "fault-injected certify is repaired or refused" '"trust":\|"reason":' \
    -XPOST -H 'x-deadline-ms: 30000' \
    -d '{"case":"three_bus","inject_basis_fault":7}' "$BASE/certify"
smoke "sweep reproduces the paper attack" '"ucap_pct":\|"reason":' \
    -XPOST -H 'x-deadline-ms: 60000' \
    -d '{"case":"three_bus","bounds":[100,200],"true_ratings":[130,120]}' "$BASE/sweep"
smoke "safety-audit flags an overload" '"passed":false' \
    -XPOST -d '{"case":"three_bus","p_mw":[300,0]}' "$BASE/safety-audit"
smoke "expired deadline refused at admission" 'deadline_expired_at_admission' \
    -XPOST -H 'x-deadline-ms: 0' -d '{"case":"three_bus"}' "$BASE/dispatch"
smoke "malformed JSON is typed" '"reason":"bad_request"' \
    -XPOST -d '{"case": nope' "$BASE/dispatch"
smoke "leading-zero number is malformed JSON" '"reason":"bad_request"' \
    -XPOST -d '{"case":"three_bus","p_mw":[01,299]}' "$BASE/safety-audit"
smoke "handler panic contained as typed 500" 'worker_panicked' \
    -XPOST -d '{"case":"three_bus","chaos":"panic"}' "$BASE/dispatch"
smoke "server alive after panic" '"status":"ok"' "$BASE/healthz"

# SIGTERM with an in-flight (stalled) request: the drain must answer it
# and the process must exit 0.
curl -s --max-time 30 -XPOST -d '{"case":"three_bus","chaos":"stall"}' \
    "$BASE/dispatch" > "$DRAIN_OUT" &
CURL_PID=$!
sleep 0.1
kill -TERM "$SERVE_PID"
wait "$CURL_PID" || { echo "FAILED: in-flight request dropped during drain" >&2; exit 1; }
grep -q '"status":"ok"' "$DRAIN_OUT" || {
    echo "FAILED: drained request did not get its answer: $(cat "$DRAIN_OUT")" >&2
    exit 1
}
SERVE_STATUS=0
wait "$SERVE_PID" || SERVE_STATUS=$?
trap - EXIT
if [ "$SERVE_STATUS" -ne 0 ]; then
    echo "FAILED: ed-serve exited $SERVE_STATUS on SIGTERM" >&2
    cat "$SERVE_LOG" >&2
    exit 1
fi
grep -q "shutdown complete" "$SERVE_LOG" || {
    echo "FAILED: ed-serve did not report a drained shutdown" >&2
    cat "$SERVE_LOG" >&2
    exit 1
}
rm -f "$SERVE_LOG" "$DRAIN_OUT"
echo "==> ed-serve smoke test OK (drained shutdown on SIGTERM)"

# Atlas crash-tolerance gate: a small sweep through the real ed-atlas
# binary must (1) certify zero silent holes, (2) survive kill -9 mid-grid
# and resume to a byte-identical report, and (3) quarantine a seeded
# fault plan as typed rows — never as missing cells.
echo "==> atlas crash-tolerance gate"
ATLAS_DIR="$(mktemp -d)"
cleanup_atlas() { rm -rf "$ATLAS_DIR"; }
trap cleanup_atlas EXIT
ATLAS=./target/release/ed-atlas
ATLAS_SPEC=(--cases three_bus --hours 3 --ed-k 2 --contingencies 1 --retries 1 --threads 2)

"$ATLAS" "${ATLAS_SPEC[@]}" --journal "$ATLAS_DIR/ref.journal" \
    --out "$ATLAS_DIR/ref.json" > "$ATLAS_DIR/ref.out" 2>/dev/null
grep -q "0 silent holes" "$ATLAS_DIR/ref.out" || {
    echo "FAILED: atlas reference sweep did not certify zero silent holes" >&2
    cat "$ATLAS_DIR/ref.out" >&2
    exit 1
}

# Kill -9 mid-grid: per-cell stall keeps cells in flight long enough for
# the signal to land between a journal claim and its result.
"$ATLAS" "${ATLAS_SPEC[@]}" --journal "$ATLAS_DIR/kill.journal" \
    --out "$ATLAS_DIR/kill.json" --stall-ms 150 > /dev/null 2>&1 &
ATLAS_PID=$!
for _ in $(seq 1 200); do
    grep -q '"ev":"result"' "$ATLAS_DIR/kill.journal" 2>/dev/null && break
    sleep 0.05
done
kill -9 "$ATLAS_PID" 2>/dev/null || true
wait "$ATLAS_PID" 2>/dev/null || true
if [ ! -f "$ATLAS_DIR/kill.json" ]; then
    "$ATLAS" "${ATLAS_SPEC[@]}" --journal "$ATLAS_DIR/kill.journal" \
        --out "$ATLAS_DIR/kill.json" --resume > /dev/null 2>"$ATLAS_DIR/resume.err"
    grep -q "cells recovered from journal" "$ATLAS_DIR/resume.err" || {
        echo "FAILED: atlas resume did not recover journaled cells" >&2
        cat "$ATLAS_DIR/resume.err" >&2
        exit 1
    }
fi
cmp "$ATLAS_DIR/ref.json" "$ATLAS_DIR/kill.json" || {
    echo "FAILED: resumed atlas report differs from the uninterrupted report" >&2
    exit 1
}
echo "==> atlas kill-and-resume byte-identical OK"

# Seeded fault plan: cells 2 and 5 panic on every attempt; they must
# exhaust retries and land in the report as typed quarantined rows.
"$ATLAS" --cases three_bus --hours 2 --ed-k 2 --contingencies 0 --retries 1 \
    --fault-cells 2,5 --fault-attempts 99 \
    --journal "$ATLAS_DIR/fault.journal" --out "$ATLAS_DIR/fault.json" \
    > "$ATLAS_DIR/fault.out" 2>/dev/null
grep -q "6/6 cells, 2 quarantined, 0 silent holes" "$ATLAS_DIR/fault.out" || {
    echo "FAILED: atlas fault plan did not quarantine exactly 2 of 6 cells" >&2
    cat "$ATLAS_DIR/fault.out" >&2
    exit 1
}
QROWS="$(grep -c '"outcome":"quarantined"' "$ATLAS_DIR/fault.json")"
if [ "$QROWS" -ne 2 ]; then
    echo "FAILED: expected 2 quarantined rows in the atlas report, got $QROWS" >&2
    exit 1
fi
cleanup_atlas
trap - EXIT
echo "==> atlas quarantine-as-row OK"

# Atlas answer pin: a fixed exact-tier sweep of the 3- and 6-bus cases
# (3456 cells, about 5 s) must reproduce the pinned report byte for byte.
# A change that legitimately moves atlas answers re-pins the hash and
# gives its evidence.
ATLAS_PIN_SHA=d83eb08b5fc3a229dd2e5a4718db528c5115f97b06e358507a9a395b468a76e9
ATLAS_PIN_DIR="$(mktemp -d)"
trap 'rm -rf "$ATLAS_PIN_DIR"' EXIT
run ./target/release/ed-atlas --cases three_bus,six_bus --hours 96 --ed-k 3 \
    --contingencies 4 --tier exact --threads 2 \
    --journal "$ATLAS_PIN_DIR/pin.journal" --out "$ATLAS_PIN_DIR/pin.json"
atlas_sha="$(sha256sum "$ATLAS_PIN_DIR/pin.json" | cut -d' ' -f1)"
rm -rf "$ATLAS_PIN_DIR"
trap - EXIT
if [ "$atlas_sha" != "$ATLAS_PIN_SHA" ]; then
    echo "FAILED: atlas report sha256 $atlas_sha, pinned $ATLAS_PIN_SHA" >&2
    exit 1
fi
echo "==> atlas answer pin: sha256 $atlas_sha OK"

echo "verify: OK"
