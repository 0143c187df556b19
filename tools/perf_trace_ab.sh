#!/bin/sh
# Perf gate for the trace layer: interleaved A/B of perf_kernel between
# a default build (IDA_TRACE=OFF) and a trace build (IDA_TRACE=ON),
# comparing per-side medians of events_per_sec. No trace code runs in
# the raw event kernel, so any delta is binary layout/alignment noise;
# the tight default tolerance (6%) bounds it and proves a default build
# pays nothing for the instrumentation. The cost of *live* per-IO
# attribution is measured end to end by perfbench (its trace.overhead_s
# per-layer metric), not here.
# Alternating A/B/A/B runs cancel machine drift, and each side gets one
# discarded warmup run.
#
# Usage: tools/perf_trace_ab.sh [runs-per-side] [events-tol]
#   runs-per-side: default 5
#   events-tol:    allowed events/sec median regression %, default 6
set -eu

RUNS="${1:-5}"
EV_TOL="${2:-6}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
OFF_DIR="build-perf-off"
ON_DIR="build-perf-on"

for side in OFF ON; do
    [ "$side" = OFF ] && dir="$OFF_DIR" || dir="$ON_DIR"
    [ "$side" = OFF ] && flag=OFF || flag=ON
    cmake -B "$dir" -S "$SRC_DIR" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DIDA_TRACE=$flag
    cmake --build "$dir" --parallel --target perf_kernel
done

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

rate() {
    grep -Eo "\"$2\": [0-9.]+" "$1" | grep -Eo '[0-9.]+$'
}

one_run() { # $1=dir $2=results-dir
    IDA_RESULTS_DIR="$2" \
        IDA_PERF_EVENTS="${IDA_PERF_EVENTS:-4000000}" \
        "$1/bench/perf_kernel" > /dev/null
}

# One discarded warmup per side: the first run pays page-cache and
# branch-predictor cold costs that would otherwise land on side OFF.
one_run "$OFF_DIR" "$OUT_DIR/warm-off"
one_run "$ON_DIR" "$OUT_DIR/warm-on"

i=0
while [ "$i" -lt "$RUNS" ]; do
    for side in off on; do
        [ "$side" = off ] && dir="$OFF_DIR" || dir="$ON_DIR"
        res="$OUT_DIR/$side-$i"
        one_run "$dir" "$res"
        rate "$res/BENCH_kernel.json" events_per_sec \
            >> "$OUT_DIR/ev_$side"
    done
    i=$((i + 1))
done

median() {
    sort -n "$1" | awk '{a[NR]=$1} END{print a[int((NR+1)/2)]}'
}

MED_OFF="$(median "$OUT_DIR/ev_off")"
MED_ON="$(median "$OUT_DIR/ev_on")"
echo "perf_trace_ab: median events/sec OFF=$MED_OFF ON=$MED_ON"
if ! awk -v off="$MED_OFF" -v on="$MED_ON" -v tol="$EV_TOL" 'BEGIN {
    delta = 100.0 * (off - on) / off
    printf "perf_trace_ab: events/sec ON is %.2f%% below OFF " \
           "(tolerance %s%%)\n", delta, tol
    exit (delta <= tol) ? 0 : 1
}'; then
    echo "perf_trace_ab: FAIL - IDA_TRACE=ON regresses perf_kernel" \
         "beyond the tolerance" >&2
    exit 1
fi
echo "perf_trace_ab: OK"
