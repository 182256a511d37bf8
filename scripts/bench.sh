#!/usr/bin/env bash
# bench.sh — record one snapshot of the repository's performance.
#
# Runs the repository's benchmark (_perfbench/run.sh, see its README)
# for every workload untraced (--trace 0: the end-to-end metrics) and for
# figures and population traced (--trace 1: the per-layer split), plus
# the kernel micro-benchmarks, and writes BENCH_<date>_<label>.json: each
# benchmark run's last stdout line (its JSON result) beside the kernel
# rows, assembled and validated by scripts/benchcheck. Each kernel
# benchmark runs BENCHCOUNT times and keeps its fastest repetition. Every
# benchmark run uses seed 11, the one at which _perfbench checks each
# output against the committed goldens.
#
# Compare two builds by recording both on one machine, one after the
# other; a single benchmark run is one sample, so a speed claim still
# needs alternating pairs (see _perfbench's --steady).
#
# Usage:
#   scripts/bench.sh [label]
#   BENCH_SECONDS=30 BENCHTIME_MICRO=2s BENCHCOUNT=5 scripts/bench.sh label
set -euo pipefail
cd "$(dirname "$0")/.."

# A label is required in the JSON (an unlabeled snapshot once shipped as
# `"label": ""` and was undiffable from its neighbors); default to the
# git revision so ad-hoc runs stay attributable.
REVISION="$(git describe --always --dirty 2>/dev/null || echo unknown)"
LABEL="${1:-$REVISION}"
DATE="$(date +%F)"
OUT="BENCH_${DATE}_${LABEL}.json"

SECONDS_PER_RUN="${BENCH_SECONDS:-10}"
SEED=11
MICRO_TIME="${BENCHTIME_MICRO:-1s}"
COUNT="${BENCHCOUNT:-3}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# run_workload W TRACE: one benchmark run; its last stdout line is the
# run's JSON result, recorded as it stands.
run_workload() {
  local w="$1" trace="$2" log="$TMP/$1-trace$2.log"
  bash _perfbench/run.sh --workload "$w" --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace "$trace" | tee "$log"
  printf '{"workload": "%s", "trace": %d, "seed": %d, "seconds": %s, "result": %s}\n' \
    "$w" "$trace" "$SEED" "$SECONDS_PER_RUN" "$(tail -n 1 "$log")" >> "$TMP/runs.jsonl"
}
for w in figures population service; do
  run_workload "$w" 0
done
for w in figures population; do
  run_workload "$w" 1
done

# kernels PKG PATTERN: the package's micro-benchmarks, as go test
# prints them.
kernels() {
  go test -run '^$' -bench "$2" -benchmem -benchtime "$MICRO_TIME" -count "$COUNT" "$1" | tee -a "$TMP/kernels.txt"
}
kernels ./internal/phasor 'SumSeries$|PeakPower$'
kernels ./internal/core 'EnvelopeSeries10Carriers$|ExpectedPeak$|MonteCarlo$'
kernels ./internal/baseline 'PeakReceivedPower'
kernels ./internal/dsp 'MaxCorrelation4096x96$'
kernels ./internal/gen2 'QueryAdjustPass'
kernels ./internal/session 'InventoryRound/event-channel'

# benchcheck writes the snapshot only if it validates: parseable JSON,
# non-empty label, every run correct with its metrics, sane kernel
# figures. A malformed snapshot is worse than none.
go run ./scripts/benchcheck -record "$OUT" -label "$LABEL" -date "$DATE" -revision "$REVISION" -best-of "$COUNT" \
  -runs "$TMP/runs.jsonl" -kernels "$TMP/kernels.txt"
