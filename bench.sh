#!/usr/bin/env bash
# Snapshots the deterministic experiment measurements the CI bench gate
# diffs — the perf-trajectory history the ROADMAP asks every perf PR to
# extend:
#
#   BENCH_exp01.json  the Table-1 experiment (exp01_table1 --json)
#   BENCH_suite.json  the whole runner registry over the standard
#                     scenario grid (ncc-cli suite), including the model
#                     dimension: every cell names its execution model
#                     (ncc / congested-clique / kmachine / hybrid) and the
#                     model rows carry km_rounds + max_edge_load
#   BENCH_serve.json  the serve-layer load experiment (exp21_serve_load):
#                     sustained scenarios/sec and latency percentiles
#                     through the resident coordinator. Marked
#                     `wall_clock: true`, so bench_compare *reports* it
#                     (and still fails on any Failed verdict) but never
#                     gates on its machine-dependent timing numbers.
#   BENCH_scale.json  the huge-graph sweep (exp22_scale): RMAT +
#                     hyperbolic at n ∈ {10⁴,10⁵,10⁶}, the n=10⁷ RMAT
#                     broadcast row (generate + run, end-to-end), and
#                     the sparse-tail cell (sum_active over a one-node
#                     tail, the O(active) certificate); each
#                     cell records gen_wall_ms and the warm engine's
#                     resident_bytes_per_node. Also `wall_clock: true`
#                     (reported, not diffed); the refresh runs the full
#                     sweep including the 10⁷ row (~minutes), the
#                     --compare path runs the --smoke cells like CI
#                     (BFS at 10⁴ + the parallel-generation identity
#                     check).
#
# Usage:
#   ./bench.sh [extra cargo run args...]
#       refresh all four snapshots in place
#   ./bench.sh --bless
#       same refresh, by its gate-facing name: `rounds` is a headline
#       metric, so the CI gate *allows* round-count improvements but keeps
#       failing until the faster numbers are blessed into the committed
#       snapshots — run this, review the deltas, commit the result.
#   ./bench.sh --compare <exp01-baseline.json> [<suite-baseline.json>]
#                        [<serve-baseline.json>] [<scale-baseline.json>]
#       run fresh into BENCH_*.fresh.json and print per-record tables with
#       a rounds-delta column. Exit non-zero on perf *regressions* (round
#       counts up), on drift of any other deterministic field at equal
#       rounds, or on a degraded correctness verdict; round-count
#       *improvements* pass (bless them in with `./bench.sh --bless`).
#       Never compares wall-clock. Used by the `bench-gate` CI job.
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--bless" ]]; then
    shift # --bless is the refresh path under its gate-facing name
fi

if [[ "${1:-}" == "--compare" ]]; then
    exp01_baseline="${2:?--compare needs an exp01 baseline json path}"
    shift 2
    suite_baseline="BENCH_suite.json"
    if [[ $# -gt 0 && "$1" != --* ]]; then
        suite_baseline="$1"
        shift
    fi
    serve_baseline="BENCH_serve.json"
    if [[ $# -gt 0 && "$1" != --* ]]; then
        serve_baseline="$1"
        shift
    fi
    scale_baseline="BENCH_scale.json"
    if [[ $# -gt 0 && "$1" != --* ]]; then
        scale_baseline="$1"
        shift
    fi
    exp01_fresh="BENCH_exp01.fresh.json"
    suite_fresh="BENCH_suite.fresh.json"
    serve_fresh="BENCH_serve.fresh.json"
    scale_fresh="BENCH_scale.fresh.json"
    cargo run --release -p ncc-bench --bin exp01_table1 -- --json "$exp01_fresh" "$@"
    echo
    cargo run --release -p ncc --bin ncc-cli -- suite --out "$suite_fresh" "$@"
    echo
    cargo run --release -p ncc-bench --bin exp21_serve_load -- --smoke --json "$serve_fresh"
    echo
    cargo run --release -p ncc-bench --bin exp22_scale -- --smoke --json "$scale_fresh"
    echo
    cargo run --release -p ncc-bench --bin bench_compare -- "$exp01_baseline" "$exp01_fresh"
    echo
    cargo run --release -p ncc-bench --bin bench_compare -- "$suite_baseline" "$suite_fresh"
    echo
    # wall_clock marker => reported, not gated (verdicts still checked)
    cargo run --release -p ncc-bench --bin bench_compare -- "$serve_baseline" "$serve_fresh"
    echo
    cargo run --release -p ncc-bench --bin bench_compare -- "$scale_baseline" "$scale_fresh"
else
    cargo run --release -p ncc-bench --bin exp01_table1 -- --json BENCH_exp01.json "$@"
    echo
    cargo run --release -p ncc --bin ncc-cli -- suite --out BENCH_suite.json "$@"
    echo
    cargo run --release -p ncc-bench --bin exp21_serve_load -- --smoke --json BENCH_serve.json
    echo
    cargo run --release -p ncc-bench --bin exp22_scale -- --json BENCH_scale.json
    echo
    echo "snapshots written to BENCH_exp01.json + BENCH_suite.json + BENCH_serve.json + BENCH_scale.json:"
    head -n 12 BENCH_exp01.json
    head -n 12 BENCH_suite.json
    head -n 12 BENCH_serve.json
    head -n 12 BENCH_scale.json
fi
