#!/usr/bin/env bash
# Perf smoke test: the parallel replicate harness must produce output
# byte-identical to a serial run. Runs `fig10_replicated --quick` with
# BICORD_THREADS=1 and BICORD_THREADS=8, diffs the stdout tables, and
# fails on any divergence. Also reports the wall-clock ratio.
#
# Unless PERF_SMOKE_SKIP_BENCH=1 is set, it then runs the medium-query
# microbenches in quick mode (short BICORD_BENCH_SECS budget), the
# `multi_node --quick` end-to-end bench, and the `dense_city_scaling`
# spatial-culling sweep both with `--quick` and at full scale (about a
# second), appending each as a machine-readable record to
# BENCH_results.json via PerfRecorder. Together with `robustness_sweep
# --quick` these are every record scripts/bench_compare.sh gates against
# the committed baseline, and a baseline record missing from the results
# fails that gate.
#
# Usage: scripts/perf_smoke.sh [path-to-fig10_replicated-binary]
# With no argument, builds and runs via `cargo run --release`.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="${1:-}"
run_fig10() {
    local threads="$1" out="$2"
    if [[ -n "$BIN" ]]; then
        BICORD_THREADS="$threads" BICORD_BENCH_JSON=0 "$BIN" --quick >"$out" 2>/dev/null
    else
        BICORD_THREADS="$threads" BICORD_BENCH_JSON=0 \
            cargo run -q --offline --release -p bicord-bench --bin fig10_replicated -- --quick \
            >"$out" 2>/dev/null
    fi
}

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "perf_smoke: serial run (BICORD_THREADS=1)..."
t0=$(date +%s%N)
run_fig10 1 "$tmpdir/serial.txt"
t1=$(date +%s%N)

echo "perf_smoke: parallel run (BICORD_THREADS=8)..."
run_fig10 8 "$tmpdir/parallel.txt"
t2=$(date +%s%N)

if ! diff -u "$tmpdir/serial.txt" "$tmpdir/parallel.txt"; then
    echo "perf_smoke: FAIL — parallel output diverges from serial" >&2
    exit 1
fi

serial_ms=$(( (t1 - t0) / 1000000 ))
parallel_ms=$(( (t2 - t1) / 1000000 ))
echo "perf_smoke: PASS — outputs byte-identical"
echo "perf_smoke: serial ${serial_ms} ms, 8-thread ${parallel_ms} ms"
if [[ "$parallel_ms" -gt 0 ]]; then
    echo "perf_smoke: speedup $(awk "BEGIN { printf \"%.2fx\", $serial_ms / $parallel_ms }")"
fi

if [[ "${PERF_SMOKE_SKIP_BENCH:-0}" == "1" ]]; then
    echo "perf_smoke: PERF_SMOKE_SKIP_BENCH=1 — skipping bench recording"
    exit 0
fi

echo "perf_smoke: medium microbenches (quick budget) -> BENCH_results.json..."
BICORD_BENCH_SECS=0.2 \
    cargo bench -q --offline -p bicord-bench --bench microbench -- medium \
    | cargo run -q --offline --release -p bicord-bench --bin record_microbench \
        -- medium_microbench --quick

echo "perf_smoke: multi_node --quick -> BENCH_results.json..."
cargo run -q --offline --release -p bicord-bench --bin multi_node -- --quick \
    >/dev/null

echo "perf_smoke: dense_city_scaling --quick -> BENCH_results.json..."
cargo run -q --offline --release -p bicord-bench --bin dense_city_scaling -- --quick \
    >/dev/null

echo "perf_smoke: dense_city_scaling (full) -> BENCH_results.json..."
cargo run -q --offline --release -p bicord-bench --bin dense_city_scaling >/dev/null

echo "perf_smoke: bench records updated"
