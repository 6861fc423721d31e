#!/usr/bin/env bash
# Repository gate: formatting, lints, artifact audits, the tier-1 test
# suite, and the end-to-end benchmark's own tests.
#
# Usage: scripts/check.sh
#
# Report paths are configurable (both default to the repository root):
#   LINT_REPORT=/tmp/lint.json AUDIT_REPORT=/tmp/audit.json scripts/check.sh
#
# Set PERF_GATE=1 to also run the perf-regression gate (scripts/
# perf_gate.sh: regenerates the fig3/fig7/table3 BENCH snapshots and
# diffs them against tests/golden/bench_baseline/ — adds ~1-2 minutes).
set -euo pipefail
cd "$(dirname "$0")/.."

LINT_REPORT="${LINT_REPORT:-lint_report.json}"
AUDIT_REPORT="${AUDIT_REPORT:-audit_report.json}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# The e2e benchmark is a package of its own (see the last stage), so the
# workspace-level fmt and clippy above do not reach it.
echo "==> cargo fmt --check, cargo clippy (e2e benchmark package)"
cargo fmt --manifest-path e2e/Cargo.toml -- --check
cargo clippy --offline --manifest-path e2e/Cargo.toml --all-targets -- -D warnings

echo "==> cnnre-lint (static analysis incl. test trees, report in $LINT_REPORT)"
cargo run --quiet -p cnnre-lint -- --include-tests --format json --out "$LINT_REPORT"

echo "==> cnnre-audit (golden artifacts, report in $AUDIT_REPORT)"
cargo run --quiet -p cnnre-audit -- candidates tests/golden/lenet_candidates.jsonl --quiet
cargo run --quiet -p cnnre-audit -- trace tests/golden/lenet_trace.csv \
    --format json --out "$AUDIT_REPORT" --quiet
cargo run --quiet -p cnnre-audit -- events tests/golden/lenet_events.evt \
    --trace tests/golden/lenet_trace.csv \
    --candidates tests/golden/lenet_candidates.jsonl --quiet

echo "==> viz (protocol round-trip fuzz + replay determinism)"
cargo test -q -p cnnre-viz
VIZ_TMP="$(mktemp -d)"
trap 'rm -rf "$VIZ_TMP"' EXIT
cargo run --quiet -p cnnre-viz -- --replay tests/golden/lenet_events.evt \
    --out-dir "$VIZ_TMP/a" --snapshots >/dev/null 2>&1
cargo run --quiet -p cnnre-viz -- --replay tests/golden/lenet_events.evt \
    --out-dir "$VIZ_TMP/b" --snapshots >/dev/null 2>&1
diff -r "$VIZ_TMP/a" "$VIZ_TMP/b"
diff -q "$VIZ_TMP/a/graph.dot" tests/golden/lenet_graph.dot
diff -q "$VIZ_TMP/a/timeline.svg" tests/golden/lenet_timeline.svg

echo "==> model check (schedule exploration of concurrent surfaces)"
scripts/model.sh

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> weights event stream (record a weights attack, audit and render it)"
# The golden stream above is a structure run; this stage audits a weights
# attack's WeightRecovered stream (E001 monotone cycles, E002 increasing
# sequence numbers) and renders it.
./target/release/cnnre attack-weights --filters 2 --events-out "$VIZ_TMP/w.evt" >/dev/null
cargo run --quiet -p cnnre-audit -- events "$VIZ_TMP/w.evt" --quiet
./target/release/cnnre-viz --replay "$VIZ_TMP/w.evt" --out-dir "$VIZ_TMP/w" >/dev/null
[[ -s "$VIZ_TMP/w/timeline.svg" ]] || { echo "cnnre-viz rendered no timeline.svg" >&2; exit 1; }

echo "==> live obs plane (serve-obs on loopback, scrape all endpoints, diff vs JSON export)"
# Start a real experiment with the embedded scrape server on an
# ephemeral port, learn the address from CNNRE_OBS_ADDR_FILE, render its
# /events stream with cnnre-viz, probe all five endpoints with the
# in-tree client (no curl), cross-check /metrics against the end-of-run
# JSON export, and release the hold.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$VIZ_TMP" "$OBS_TMP"' EXIT
rm -f "$OBS_TMP/addr" "$OBS_TMP/BENCH_table3.json"
CNNRE_QUICK=1 CNNRE_OBS_ADDR_FILE="$OBS_TMP/addr" \
    ./target/release/table3 --threads 2 --serve-obs 127.0.0.1:0 \
    --serve-obs-hold --out "$OBS_TMP/BENCH_table3.json" >/dev/null &
OBS_PID=$!
for _ in $(seq 1 600); do
    [[ -s "$OBS_TMP/addr" && -s "$OBS_TMP/BENCH_table3.json" ]] && break
    if ! kill -0 "$OBS_PID" 2>/dev/null; then
        echo "serve-obs run exited before serving" >&2; exit 1
    fi
    sleep 0.1
done
./target/release/cnnre-viz --replay "http://$(cat "$OBS_TMP/addr")/events" \
    --out-dir "$OBS_TMP/viz"
[[ -s "$OBS_TMP/viz/graph.dot" ]] || { echo "cnnre-viz rendered no graph.dot" >&2; exit 1; }
./target/release/cnnre obs-probe "$(cat "$OBS_TMP/addr")" \
    --against "$OBS_TMP/BENCH_table3.json" --quit
wait "$OBS_PID"

echo "==> tier-1 (multi-threaded solve): CNNRE_THREADS=4 cargo test -q"
# Re-run the suite with the parallel solver/oracle engines engaged so the
# determinism guarantees (byte-identical candidates, goldens, telemetry)
# are exercised under multi-worker scheduling, not just --threads 1.
CNNRE_THREADS=4 cargo test -q

echo "==> e2e benchmark tests (smoke run of every workload and its checks)"
# The benchmark is a package of its own (e2e/Cargo.toml has an empty
# [workspace] table), so neither `cargo test` above reaches it.
cargo test -q --offline --manifest-path e2e/Cargo.toml

echo "==> e2e weights-pooled count window (pinned recovery counts, ~10 s)"
# The benchmark's tests run small victims; only a full-scale count window
# checks the pinned (resolved, zero, unrecovered) counts of weights-pooled,
# so a change to what the weights attack recovers fails here rather than
# in the benchmark. The run exits non-zero when a request fails.
cargo run --release --quiet --offline --manifest-path e2e/Cargo.toml -- \
    --workload weights-pooled --seconds 0

echo "==> e2e weights-plain count window (pinned recovery counts, ~2 s)"
# The same check for the unpooled layer: every search there is unpinned
# and takes the monotone grid, a path weights-pooled rarely reaches; it
# pins (34848, 15648, 0) at full scale.
cargo run --release --quiet --offline --manifest-path e2e/Cargo.toml -- \
    --workload weights-plain --seconds 0

echo "==> e2e lenet-e2e count window (pinned counts through the accelerator, ~10 s)"
# The same check for the real leak path: lenet-e2e recovers LeNet conv1
# through AcceleratorOracle, which counts each filter's writes from the
# engine's transactions, and pins (150, 0, 0) at full scale.
cargo run --release --quiet --offline --manifest-path e2e/Cargo.toml -- \
    --workload lenet-e2e --seconds 0

echo "==> e2e structure-zoo count window (pinned candidate counts of the zoo, ~3 s)"
# The benchmark's tests observe only LeNet and ConvNet; at full scale the
# zoo also runs AlexNet and SqueezeNet through the trace-only accelerator,
# observe and the structure solver, and pins 18/12/90/96 candidates.
cargo run --release --quiet --offline --manifest-path e2e/Cargo.toml -- \
    --workload structure-zoo --seconds 0

echo "==> probe-plan switch points (long seed sweep, ~1 s)"
# Tier-1 checks the switch-point count of a probe plan against evaluating
# every window on 400 random plans; this sweep runs 100 times as many.
cargo test --release -q -p cnnre-attacks --lib \
    switch_point_counts_equal_the_evaluation_long -- --ignored

echo "==> sparse conv forward against the GEMM (long seed sweep, ~1 s)"
# Tier-1 checks Conv2d::forward's scatter path for sparse inputs against
# im2col + GEMM, bit for bit, on 400 random layers and inputs; this sweep
# runs 100 times as many.
cargo test --release -q -p cnnre-nn --lib \
    sparse_forward_equals_the_dense_lowering_bit_for_bit_long -- --ignored

echo "==> run-structured traces against the reference segmenter (long seed sweep, ~8 s)"
# Tier-1 checks segmentation and classification of 128 traces of DMA
# bursts, with boundaries inside runs, against the reference
# implementations; this sweep runs 100 times as many.
cargo test --release -q -p cnnre-trace --lib \
    observe_matches_reference_on_run_structured_traces_long -- --ignored

echo "==> JSON readers on mutated goldens (long seed sweep, ~7 s)"
# Tier-1 feeds 20,000 mutants of the committed BENCH baselines and the
# golden candidate JSONL to the JSON reader, the perf gate's and the
# candidate auditor's parsers, none of which may panic; this sweep runs
# 300,000.
cargo test --release -q --test json_fuzz mutated_goldens_parse_or_error_long -- --ignored

echo "==> full-scale trace round trip (AlexNet trace to CSV and back, ~3 s)"
# Drives AlexNet's 4.1M coalesced transactions through the CSV writer and
# reader; the structure attack on the re-read trace must keep the 90
# candidates `cnnre attack-structure alexnet` finds.
./target/release/cnnre trace alexnet --csv "$VIZ_TMP/alex.csv" >/dev/null
./target/release/cnnre analyze "$VIZ_TMP/alex.csv" --input 227x3 --classes 10 \
    >"$VIZ_TMP/alex.txt"
grep -q "structure attack: 90 possible structures" "$VIZ_TMP/alex.txt" || {
    echo "analyze of the AlexNet CSV did not find 90 structures:" >&2
    cat "$VIZ_TMP/alex.txt" >&2
    exit 1
}

if [[ "${PERF_GATE:-0}" != "0" ]]; then
    echo "==> perf gate (opt-in via PERF_GATE=1)"
    scripts/perf_gate.sh
fi

echo "All checks passed."
