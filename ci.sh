#!/usr/bin/env bash
# Local CI: the tier-1 gate plus lint hygiene. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# The workspace test run includes the verification suites: the
# differential engine-vs-oracle campaign (bounded by CCS_DIFF_CASES,
# deterministic per case id) and the golden snapshot tests, which
# re-evaluate the full benchmark x layout x policy grid in checked
# (invariant-audited) mode against results/golden/.
echo "==> cargo test -q (incl. differential campaign + golden snapshots)"
CCS_DIFF_CASES="${CCS_DIFF_CASES:-200}" cargo test -q

# Benchmark package: its own workspace, so neither the tier-1 run nor
# the workspace build above compiles it. Building and testing it here
# catches a change to a public item it names before `run.sh` breaks.
echo "==> benchmark package tests"
cargo test --offline -q --manifest-path examples/benchmark/Cargo.toml

# Fault-injection smoke: a bounded slice of the 100-cell seeded-fault
# acceptance grid (panic isolation, deterministic timeouts, bit-identity
# of the unfaulted cells). CCS_FAULT_CASES bounds the grid; the full
# 100-cell run happens when the variable is unset (as in the plain
# `cargo test` above).
echo "==> fault-injection smoke (CCS_FAULT_CASES=${CCS_FAULT_CASES:-30})"
CCS_FAULT_CASES="${CCS_FAULT_CASES:-30}" \
    cargo test --release --test fault_injection -q

# Kill-and-resume: a campaign truncated mid-run and resumed from its
# manifest must reproduce the uninterrupted run bit-identically without
# re-running finished cells.
echo "==> checkpoint kill-and-resume"
cargo test --release --test checkpoint_resume -q

# Metrics smoke: run a checked grid with metrics on and require the
# counters' CPI stack to reconcile exactly with the critical-path
# breakdown, metrics-on runs to be bit-identical to metrics-off, and
# aggregation to be independent of thread count.
echo "==> metrics observability smoke"
cargo test --release --test metrics_observability -q

# Prediction-tier smoke: a bounded slice of the analytic-bounds suite
# (every case must land inside its predicted cycle/IPC envelope; the
# full 200-case run plus the whole golden corpus happens in the plain
# `cargo test` above) and the bound-mutation tests proving each
# check_bounds rule is non-vacuous. Then the approx-vs-full serve
# test, which sends one seeded cell mix to two fresh daemons and
# asserts the envelope tier answers it faster than simulation.
echo "==> predict bounds smoke (CCS_PREDICT_CASES=${CCS_PREDICT_CASES:-40})"
CCS_PREDICT_CASES="${CCS_PREDICT_CASES:-40}" \
    cargo test --release --test predict_bounds -q
cargo test --release -p ccs-verify bound -q
cargo test --release --test serve_approx -q envelope_tier_answers_a_cell_mix_faster
echo "    envelope tier measurably cheaper than simulation"

# Serve smoke: boot the daemon on an ephemeral loopback port, run a
# small campaign against it through `grid_campaign --server` (a
# one-shard ring) and two concurrent client-CLI grids, then drain and
# require a clean exit 0. The roundtrip/protocol test suites above
# prove bit-identity and fault tolerance; this stage proves the
# *shipped binaries* wire together.
echo "==> ccs-serve smoke (daemon + campaign + 2 concurrent client grids + drain)"
SERVE_LOG="$(mktemp)"
SERVE_MANIFEST="$(mktemp -u)"
target/release/ccs-serve --addr 127.0.0.1:0 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    SERVE_ADDR="$(sed -n 's/^listening on //p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; exit 1; }
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "daemon never reported its address"; cat "$SERVE_LOG"; exit 1; }
CCS_LEN=1000 CCS_EPOCHS=1 CCS_SAMPLES=1 CCS_MANIFEST="$SERVE_MANIFEST" \
    target/release/grid_campaign --server "$SERVE_ADDR" >/dev/null
SERVE_RECORDS="$(grep -c '"digest"' "$SERVE_MANIFEST")"
[ "$SERVE_RECORDS" -gt 0 ] || { echo "campaign wrote no manifest records"; exit 1; }
rm -f "$SERVE_MANIFEST"
echo "    grid_campaign --server wrote $SERVE_RECORDS manifest records"
target/release/ccs-client --server "$SERVE_ADDR" status >/dev/null
target/release/ccs-client --server "$SERVE_ADDR" grid --len 1000 --epochs 1 \
    --bench gzip --bench mcf >/dev/null &
CLIENT1_PID=$!
target/release/ccs-client --server "$SERVE_ADDR" grid --len 1000 --epochs 1 \
    --bench mcf --bench vpr --seed 2 >/dev/null &
CLIENT2_PID=$!
for pid in "$CLIENT1_PID" "$CLIENT2_PID"; do
    CLIENT_EXIT=0
    wait "$pid" || CLIENT_EXIT=$?
    [ "$CLIENT_EXIT" -eq 0 ] || { echo "client grid exited $CLIENT_EXIT"; cat "$SERVE_LOG"; exit 1; }
done
echo "    both concurrent client grids exited 0"
target/release/ccs-client --server "$SERVE_ADDR" drain >/dev/null
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
[ "$SERVE_EXIT" -eq 0 ] || { echo "daemon exited $SERVE_EXIT"; cat "$SERVE_LOG"; exit 1; }
rm -f "$SERVE_LOG"
echo "    daemon drained cleanly (exit 0)"

# Sharded-cluster smoke: two journaled shards, a campaign routed across
# both with `--servers`, one shard killed -9 mid-run, and the victim
# restarted from its journal. The campaign must exit 0 via ring
# failover, its manifest digests must match the in-process batch run
# bit for bit, and the reborn shard must report replayed cells.
echo "==> sharded serve smoke (2 shards + kill -9 failover + journal recovery)"
SHARD_DIR="$(mktemp -d)"
SHARD_LEN="${CCS_SHARD_LEN:-2000}"
CCS_LEN="$SHARD_LEN" CCS_EPOCHS=1 CCS_SAMPLES=1 CCS_MANIFEST="$SHARD_DIR/local.jsonl" \
    target/release/grid_campaign >/dev/null
boot_shard() { # log journal [peers]
    target/release/ccs-serve --addr 127.0.0.1:0 --journal "$2" \
        ${3:+--peers "$3"} ${4:+--recover} >"$1" 2>&1 &
}
shard_addr() { # log pid
    local addr=
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$1")"
        [ -n "$addr" ] && break
        kill -0 "$2" 2>/dev/null || { cat "$1"; return 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "shard never reported its address"; cat "$1"; return 1; }
    echo "$addr"
}
boot_shard "$SHARD_DIR/shard1.log" "$SHARD_DIR/shard1.jsonl"
SHARD1_PID=$!
SHARD1_ADDR="$(shard_addr "$SHARD_DIR/shard1.log" "$SHARD1_PID")"
boot_shard "$SHARD_DIR/shard2.log" "$SHARD_DIR/shard2.jsonl" "$SHARD1_ADDR"
SHARD2_PID=$!
SHARD2_ADDR="$(shard_addr "$SHARD_DIR/shard2.log" "$SHARD2_PID")"
CCS_LEN="$SHARD_LEN" CCS_EPOCHS=1 CCS_SAMPLES=1 \
    CCS_MANIFEST="$SHARD_DIR/cluster.jsonl" \
    target/release/grid_campaign --servers "$SHARD1_ADDR,$SHARD2_ADDR" \
    >"$SHARD_DIR/campaign.log" 2>&1 &
CAMPAIGN_PID=$!
sleep 1
kill -9 "$SHARD2_PID" 2>/dev/null || true
CAMPAIGN_EXIT=0
wait "$CAMPAIGN_PID" || CAMPAIGN_EXIT=$?
[ "$CAMPAIGN_EXIT" -eq 0 ] || {
    echo "sharded campaign exited $CAMPAIGN_EXIT despite failover"
    cat "$SHARD_DIR/campaign.log"; exit 1; }
manifest_digests() { sed -n 's/.*"key":"\([^"]*\)".*"digest":"\([^"]*\)".*/\1 \2/p' "$1" | sort; }
diff <(manifest_digests "$SHARD_DIR/local.jsonl") \
     <(manifest_digests "$SHARD_DIR/cluster.jsonl") \
    || { echo "sharded campaign digests diverge from the batch run"; exit 1; }
echo "    campaign survived the kill; digests bit-identical to the batch run"
boot_shard "$SHARD_DIR/shard3.log" "$SHARD_DIR/shard2.jsonl" "$SHARD1_ADDR" recover
SHARD3_PID=$!
SHARD3_ADDR="$(shard_addr "$SHARD_DIR/shard3.log" "$SHARD3_PID")"
RECOVERED="$(target/release/ccs-client --server "$SHARD3_ADDR" status \
    | grep -o 'recovered [0-9]*' | awk '{print $2}')"
[ "${RECOVERED:-0}" -gt 0 ] || {
    echo "reborn shard replayed nothing (recovered=${RECOVERED:-unset})"
    cat "$SHARD_DIR/shard3.log"; exit 1; }
echo "    reborn shard replayed $RECOVERED cells from its crash journal"
for pair in "$SHARD1_ADDR $SHARD1_PID" "$SHARD3_ADDR $SHARD3_PID"; do
    set -- $pair
    target/release/ccs-client --server "$1" drain >/dev/null
    SHARD_EXIT=0
    wait "$2" || SHARD_EXIT=$?
    [ "$SHARD_EXIT" -eq 0 ] || { echo "shard $1 exited $SHARD_EXIT"; exit 1; }
done
rm -rf "$SHARD_DIR"
echo "    both shards drained cleanly (exit 0)"

# Perf smoke: time the in-process grid campaign (120 cells at 20 000
# instructions) serially and with CCS_THREADS=auto, best of 2 each,
# every run into a fresh scratch manifest, and fail if the parallel
# executor regresses against serial. On a single-core host the parallel
# path degenerates to the serial one, so speedup is 1.0 +/- timer
# noise; multi-core hosts must actually go faster.
echo "==> grid perf smoke (grid_campaign serial vs auto, best of 2)"
campaign_ns() { # threads -> best-of-2 wall time in nanoseconds
    local best= t0 dt manifest
    for _ in 1 2; do
        manifest="$(mktemp -u)"
        t0=$(date +%s%N)
        CCS_LEN=20000 CCS_SAMPLES=1 CCS_THREADS="$1" CCS_MANIFEST="$manifest" \
            target/release/grid_campaign >/dev/null || return 1
        dt=$(( $(date +%s%N) - t0 ))
        rm -f "$manifest"
        if [ -z "$best" ] || [ "$dt" -lt "$best" ]; then best=$dt; fi
    done
    echo "$best"
}
SERIAL_NS="$(campaign_ns 1)"
AUTO_NS="$(campaign_ns auto)"
SPEEDUP_X100=$(( SERIAL_NS * 100 / AUTO_NS ))
MIN_X100=100
[ "$(nproc)" -le 1 ] && MIN_X100=90
printf "    serial %d ms, auto %d ms: parallel speedup %d.%02d (need >= %d.%02d)\n" \
    $(( SERIAL_NS / 1000000 )) $(( AUTO_NS / 1000000 )) \
    $(( SPEEDUP_X100 / 100 )) $(( SPEEDUP_X100 % 100 )) \
    $(( MIN_X100 / 100 )) $(( MIN_X100 % 100 ))
[ "$SPEEDUP_X100" -ge "$MIN_X100" ] || { echo "parallel grid executor regressed"; exit 1; }

# Adaptive-tier smoke: both dynamic policies (the online switcher and
# ineffectuality steering) across the 12-benchmark grid in checked
# mode — zero invariant violations, bit-identical rerun, 1-vs-8-thread
# agreement, and proof the switcher/predictor actually fire. Then the
# committed exhibit regenerates at smoke scale to keep the figure path
# itself under test.
echo "==> adaptive policy smoke (checked 12-benchmark grid + exhibit)"
cargo test --release --test adaptive_policies -q
CCS_LEN=2000 target/release/adaptive_policy --threads auto >/dev/null
echo "    dynamic policies clean, deterministic, and non-vacuous"

# Scenario smoke: the seeded manifest fuzzer at a bounded budget
# (random valid scenarios -> manifest round-trip + trace validation +
# the full engine-vs-oracle differential pipeline; deterministic per
# case id, full 120-case run in the plain `cargo test` above), the
# gallery tests (all 16 committed manifests parse, the 12 benchmark
# equivalents generate bit-identical traces), and one gallery manifest
# driven through the shipped campaign binary end to end.
echo "==> scenario smoke (CCS_SCENARIO_CASES=${CCS_SCENARIO_CASES:-40})"
CCS_SCENARIO_CASES="${CCS_SCENARIO_CASES:-40}" \
    cargo test --release --test scenario_fuzz -q
cargo test --release -p ccs-scenario -q >/dev/null
CCS_LEN=1200 CCS_EPOCHS=1 CCS_SAMPLES=1 CCS_MANIFEST="$(mktemp -u)" \
    target/release/grid_campaign \
    --scenario examples/scenarios/phase_shift.toml >/dev/null
echo "    fuzzer agreed, gallery pinned, campaign ran a manifest cell grid"

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
