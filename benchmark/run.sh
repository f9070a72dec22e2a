#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   benchmark/run.sh [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]
#
# Builds the benchmark package (offline, release), then runs each workload
# in a process of its own, one after another, so that peak RSS is per
# workload and no two workloads share the cores. Without --workload it
# runs all four. Every metric is printed by name with its unit; the last
# line of each workload is the result object. Exits non-zero if the build
# fails or any op failed a check.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload=""
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
        --seed | --seconds | --trace) pass+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
        *) echo "usage: benchmark/run.sh [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>]" >&2; exit 2 ;;
    esac
done

target="${CARGO_TARGET_DIR:-benchmark/target}"
# cargo's own output goes to stderr; stdout stays the benchmark's
cargo build --offline --release --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/ncc-benchmark"

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" "${pass[@]}"
fi

failed=0
for w in dag_bfs dag_mst scale_broadcast serve_warm; do
    "$bin" --workload "$w" "${pass[@]}" || failed=1
done
exit "$failed"
