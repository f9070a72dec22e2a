#!/usr/bin/env bash
# Runs the whole set <k> times back to back on one seed and prints, per
# workload and end-to-end metric, the k values and their spread
# (Q3 - Q1) / median, the statistic the driver accepts a benchmark on.
# Exits non-zero when a spread exceeds the metric's bound (the driver's
# rule) or a count that must repeat exactly differs; marks the spreads
# over a third of the bound.
#
#   benchmark/repeat.sh <k> [--seed <n>]
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

k="${1:?usage: benchmark/repeat.sh <k> [--seed <n>]}"
shift
mkdir -p benchmark/out
files=()
for i in $(seq 1 "$k"); do
    out="benchmark/out/repeat-$i.txt"
    echo "# repeat $i of $k" >&2
    benchmark/run.sh "$@" > "$out"
    files+=("$out")
done
"${CARGO_TARGET_DIR:-benchmark/target}/release/ncc-benchmark" summarize "${files[@]}"
