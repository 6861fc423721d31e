#!/usr/bin/env bash
# Perf-regression gate: regenerate the BENCH snapshots for the gated
# experiments (fig3, fig7, table3) and diff each against its committed
# baseline under tests/golden/bench_baseline/.
#
# Usage: scripts/perf_gate.sh
#
# Exit codes: 0 clean, 1 at least one regression, 2 usage/malformed input.
# Snapshots and reports land in $PERF_GATE_DIR (default: a temp directory);
# cycle-domain metrics are gated strictly (default 1% relative tolerance,
# override with PERF_GATE_REL_TOL), wall-ns metrics are advisory only.
# To refresh baselines after an intentional perf change, see EXPERIMENTS.md
# ("Regenerating the perf baselines").
#
# After the regression stage, the *improvement* stage byte-diffs the
# stdout of table3 and fig7 at --threads 1 and --threads $PERF_GATE_THREADS
# (default 8): candidate output must be identical at any thread count.
# It then enforces fig7's committed wall-clock speedup floor in
# SPEEDUP.json. The floor is skipped with a loud warning on hosts with
# fewer than 4 CPUs — a 3x floor is not measurable there — but the
# determinism byte-diff always runs.
set -euo pipefail
cd "$(dirname "$0")/.."

EXPERIMENTS=(fig3 fig7 table3)
BASELINE_DIR="tests/golden/bench_baseline"
PERF_GATE_DIR="${PERF_GATE_DIR:-$(mktemp -d)}"
PERF_GATE_REL_TOL="${PERF_GATE_REL_TOL:-0.01}"

echo "==> building release bench binaries"
cargo build --release -p cnnre-bench --bins

status=0
for exp in "${EXPERIMENTS[@]}"; do
    baseline="$BASELINE_DIR/BENCH_$exp.json"
    current="$PERF_GATE_DIR/BENCH_$exp.json"
    report="$PERF_GATE_DIR/perf_gate_$exp.txt"
    if [[ ! -f "$baseline" ]]; then
        echo "perf gate: missing baseline $baseline" >&2
        exit 2
    fi
    echo "==> $exp: regenerating snapshot"
    "./target/release/$exp" --out "$current" >/dev/null
    echo "==> $exp: diffing against $baseline"
    set +e
    ./target/release/perf_gate "$baseline" "$current" \
        --rel-tol "$PERF_GATE_REL_TOL" --report "$report"
    code=$?
    set -e
    if [[ $code -eq 2 ]]; then
        exit 2
    elif [[ $code -ne 0 ]]; then
        status=1
    fi
done

# --- Improvement stage: thread determinism + wall-clock speedup floors ---
# Both experiments must print the same stdout at any thread count; only
# fig7 has a speedup floor (table3's structure side has no fan-out wide
# enough to gate).
DETERMINISM_EXPERIMENTS=(table3 fig7)
SPEEDUP_EXPERIMENTS=(fig7)
SPEEDUP_FLOORS="$BASELINE_DIR/SPEEDUP.json"
PERF_GATE_THREADS="${PERF_GATE_THREADS:-8}"
NPROC="$(nproc 2>/dev/null || echo 1)"

for exp in "${DETERMINISM_EXPERIMENTS[@]}"; do
    single_stdout="$PERF_GATE_DIR/${exp}_t1.stdout"
    multi_stdout="$PERF_GATE_DIR/${exp}_t$PERF_GATE_THREADS.stdout"
    echo "==> $exp: determinism byte-diff, --threads 1 vs --threads $PERF_GATE_THREADS (quick mode)"
    CNNRE_QUICK=1 "./target/release/$exp" --threads 1 >"$single_stdout"
    CNNRE_QUICK=1 "./target/release/$exp" --threads "$PERF_GATE_THREADS" >"$multi_stdout"
    if ! cmp -s "$single_stdout" "$multi_stdout"; then
        echo "perf gate: $exp output differs between thread counts:" >&2
        diff "$single_stdout" "$multi_stdout" >&2 || true
        status=1
    fi
done

for exp in "${SPEEDUP_EXPERIMENTS[@]}"; do
    single_out="$PERF_GATE_DIR/BENCH_${exp}_t1.json"
    multi_out="$PERF_GATE_DIR/BENCH_${exp}_t$PERF_GATE_THREADS.json"
    if [[ "$NPROC" -lt 4 ]]; then
        echo "perf gate: WARNING: only $NPROC CPU(s) — skipping the $exp speedup floor" >&2
        echo "perf gate: WARNING: the >=3x wall-clock improvement is NOT being enforced here" >&2
        continue
    fi
    echo "==> $exp: measuring speedup, --threads 1 vs --threads $PERF_GATE_THREADS"
    "./target/release/$exp" --threads 1 --out "$single_out" >/dev/null
    "./target/release/$exp" --threads "$PERF_GATE_THREADS" --out "$multi_out" >/dev/null
    set +e
    ./target/release/perf_gate --speedup "$single_out" "$multi_out" \
        --floors "$SPEEDUP_FLOORS" --report "$PERF_GATE_DIR/speedup_$exp.txt"
    code=$?
    set -e
    if [[ $code -eq 2 ]]; then
        exit 2
    elif [[ $code -ne 0 ]]; then
        status=1
    fi
done

if [[ $status -eq 0 ]]; then
    echo "perf gate: all experiments within tolerance."
else
    echo "perf gate: regressions detected (reports in $PERF_GATE_DIR)." >&2
fi
exit $status
