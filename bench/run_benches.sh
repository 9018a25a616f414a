#!/usr/bin/env bash
# Runs the perf-trajectory benchmarks and writes the JSON artifacts at the
# repo root:
#   BENCH_micro_crypto.json  - google-benchmark output of bench_micro_crypto
#                              (includes *_Reference / *_Portable rows, i.e.
#                              the seed "before" numbers next to the fast
#                              paths)
#   BENCH_table3.json        - measured Table III rows from
#                              bench_table3_overhead
#   BENCH_streaming.json     - streaming-vs-monolithic server ingestion rows
#                              from bench_streaming_throughput (batched
#                              pipeline vs the seed's single-pass collect)
#   BENCH_distributed.json   - aggregate ingest throughput of a partitioned
#                              endpoint fleet (1/2/4 partitions behind the
#                              merge-of-supports coordinator), round-close
#                              latency (healthy vs degraded), durable
#                              round-store recovery time (restart -> round
#                              resumed), and the C10K row (one event-driven
#                              endpoint holding >=10k loopback connections
#                              with sustained ingest; needs `ulimit -n`
#                              above ~10.5k) from bench_distributed_throughput
#
# Usage: bench/run_benches.sh [BUILD_DIR] [--smoke]
#   --smoke: CI-sized inputs (small n everywhere) to verify the benches
#            still run; the JSON artifacts are only meaningful from a full
#            (non-smoke) run.
# Also reachable as `cmake --build build --target run_benches`.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    --*)
      echo "unknown flag: $arg" >&2
      echo "usage: bench/run_benches.sh [BUILD_DIR] [--smoke]" >&2
      exit 2
      ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

# By default every bench_micro_crypto row runs, so a regeneration keeps
# every row BENCH_micro_crypto.json carries; set MICRO_FILTER to a
# --benchmark_filter regex to run a subset.
MICRO_FILTER="${MICRO_FILTER-}"
TABLE3_N="${TABLE3_N:-2000}"
STREAMING_FLAGS=""
# Generous wall-clock budget for the --smoke table3 run (seconds): a smoke
# run that cannot finish inside it means a pathological modexp/crypto
# regression, and the job should fail rather than hang. No budget on full
# runs (0 = disabled).
SMOKE_TABLE3_BUDGET="${SMOKE_TABLE3_BUDGET:-600}"
# Throughput floor for the --smoke streaming SOLH row (rows/s at the
# default d'): the vectorized support kernels ingest well over 1M rows/s
# on one AVX2 core and ~450k rows/s on the portable backend; the old
# per-pair scalar scan managed ~140k rows/s. A smoke run under the floor
# means the bulk-kernel path regressed (or stopped being routed) and the
# job should fail. 0 disables. No budget on full runs.
SMOKE_SOLH_MIN_RATE="${SMOKE_SOLH_MIN_RATE:-300000}"
TABLE3_TIMEOUT=()
if [[ "$SMOKE" == "1" ]]; then
  TABLE3_N=300
  STREAMING_FLAGS="--smoke --solh_min_rate=$SMOKE_SOLH_MIN_RATE"
  if [[ "$SMOKE_TABLE3_BUDGET" != "0" ]] && command -v timeout >/dev/null; then
    TABLE3_TIMEOUT=(timeout "$SMOKE_TABLE3_BUDGET")
  fi
fi

MICRO_TIME_FLAG=""
if [[ "$SMOKE" == "1" ]]; then
  # Plain-double form: works on both pre- and post-1.8 google-benchmark.
  MICRO_TIME_FLAG="--benchmark_min_time=0.01"
fi
if [[ -x "$BUILD_DIR/bench_micro_crypto" ]]; then
  "$BUILD_DIR/bench_micro_crypto" \
    ${MICRO_FILTER:+--benchmark_filter="$MICRO_FILTER"} \
    ${MICRO_TIME_FLAG:+"$MICRO_TIME_FLAG"} \
    --benchmark_out="$ROOT/BENCH_micro_crypto.json" \
    --benchmark_out_format=json
else
  echo "bench_micro_crypto not built (google-benchmark missing); skipping"
fi

${TABLE3_TIMEOUT[@]+"${TABLE3_TIMEOUT[@]}"} \
  "$BUILD_DIR/bench_table3_overhead" --n="$TABLE3_N" \
  --json="$ROOT/BENCH_table3.json"

"$BUILD_DIR/bench_streaming_throughput" $STREAMING_FLAGS \
  --json="$ROOT/BENCH_streaming.json"

"$BUILD_DIR/bench_distributed_throughput" $STREAMING_FLAGS \
  --json="$ROOT/BENCH_distributed.json"

echo "wrote $ROOT/BENCH_micro_crypto.json, $ROOT/BENCH_table3.json, $ROOT/BENCH_streaming.json and $ROOT/BENCH_distributed.json"
