#!/usr/bin/env bash
# bench.sh — record the perf trajectory of the tier-1 benchmarks.
#
# Runs the experiment-level benchmarks (root package) plus the hot-path
# microbenchmarks (core envelope kernel, baseline peak scan, DSP kernels)
# and writes BENCH_<date>_<label>.json with ns/op, B/op and allocs/op
# per benchmark, so successive runs can be diffed to prove a hot-path
# change helped.
#
# Each benchmark runs BENCHCOUNT times and the JSON records the
# best-of-N figure (minimum ns/op, with that run's B/op and allocs/op):
# the minimum is the least-noise estimate of the code's actual cost on a
# shared machine, where one-off scheduler hiccups only ever push timings
# up, never down.
#
# Usage:
#   scripts/bench.sh [label]
#   BENCHTIME_EXP=4x BENCHTIME_MICRO=2s BENCHCOUNT=5 scripts/bench.sh optimized
set -euo pipefail
cd "$(dirname "$0")/.."

# A label is required in the JSON (an unlabeled snapshot once shipped as
# `"label": ""` and was undiffable from its neighbors); default to the
# git short SHA so ad-hoc runs stay attributable.
LABEL="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo adhoc)}"
DATE="$(date +%F)"
OUT="BENCH_${DATE}_${LABEL}.json"

# Experiment benchmarks run a fixed iteration count: each iteration is a
# full deterministic experiment (hundreds of ms), so wall-clock noise is
# small and a fixed count keeps the run time bounded. -count repeats give
# the best-of-N selection below something to select from.
EXP_TIME="${BENCHTIME_EXP:-4x}"
MICRO_TIME="${BENCHTIME_MICRO:-1s}"
COUNT="${BENCHCOUNT:-3}"

EXP_BENCH='BenchmarkInventoryExchange$|BenchmarkFig6FreqSelectionCDF$|BenchmarkFig9GainVsAntennas$|BenchmarkFig12CIBvsBaselineCDF$|BenchmarkFig13RangeStandardAir$|BenchmarkFig13DepthStandardWater$|BenchmarkPopulation$|BenchmarkAdaptiveQ$'
MICRO_CORE='BenchmarkEnvelopeSeries10Carriers$|BenchmarkExpectedPeak$'
MICRO_BASE='BenchmarkPeakReceivedPower'
MICRO_DSP='BenchmarkMaxCorrelation4096x96$'

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench "$EXP_BENCH" -benchmem -benchtime "$EXP_TIME" -count "$COUNT" . | tee -a "$TMP"
go test -run '^$' -bench "$MICRO_CORE" -benchmem -benchtime "$MICRO_TIME" -count "$COUNT" ./internal/core | tee -a "$TMP"
go test -run '^$' -bench "$MICRO_BASE" -benchmem -benchtime "$MICRO_TIME" -count "$COUNT" ./internal/baseline | tee -a "$TMP"
go test -run '^$' -bench "$MICRO_DSP" -benchmem -benchtime "$MICRO_TIME" -count "$COUNT" ./internal/dsp | tee -a "$TMP"

awk -v date="$DATE" -v label="$LABEL" -v count="$COUNT" '
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip -GOMAXPROCS suffix
    iters = $2
    ns = ""; bytes = ""; allocs = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    # Best-of-N: keep the repetition with the lowest ns/op per name.
    if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) {
        best_ns[name] = ns
        best_iters[name] = iters
        best_bytes[name] = bytes
        best_allocs[name] = allocs
    }
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"label\": \"%s\",\n  \"best_of\": %d,\n  \"benchmarks\": [\n", date, label, count
    for (k = 1; k <= n; k++) {
        name = order[k]
        printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, best_iters[name], best_ns[name]
        if (best_bytes[name] != "")  printf ", \"bytes_per_op\": %s", best_bytes[name]
        if (best_allocs[name] != "") printf ", \"allocs_per_op\": %s", best_allocs[name]
        printf "%s", (k < n ? "},\n" : "}\n")
    }
    printf "  ]\n}\n"
}
' "$TMP" > "$OUT"

# Validate what was just written: parseable JSON, non-empty label, sane
# per-benchmark figures. A malformed snapshot is worse than none.
go run ./scripts/benchcheck "$OUT"

echo "wrote $OUT"
