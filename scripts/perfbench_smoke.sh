#!/usr/bin/env bash
# Perfbench smoke test: builds the benchmark program (perfbench/) and
# runs each of its four workloads for one second untraced. perfbench
# checks every operation's output against perfbench/expected.json; the
# script fails unless each workload's final result line reports
# `"correct": true` and `"failed": 0`. Once built, each workload takes
# one to two seconds.
#
# Usage: scripts/perfbench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "perfbench_smoke: building perfbench..."
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml

status=0
for workload in coex_bicord city_10k sweep_mixed coex_traced; do
    line="$(perfbench/target/release/perfbench --workload "$workload" \
        --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    if [[ "$line" == *'"correct": true'* && "$line" == *'"failed": 0,'* ]]; then
        echo "perfbench_smoke: $workload ok"
    else
        echo "perfbench_smoke: FAIL — $workload: ${line:0:200}" >&2
        status=1
    fi
done
exit "$status"
