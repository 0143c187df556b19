#!/bin/sh
# Validate a BENCH_*.json perf record against the documented schema
# (docs/PERF.md): an object with exactly the fields
#   bench (string), commit (string),
#   events_per_sec, wall_ms (positive numbers),
#   config (geometry/coding/build fingerprint object).
# Grep-based on purpose: runs anywhere the tier-1 gate runs, no jq.
#
# With a baseline argument the script is also the perf regression gate:
# the fresh record's events_per_sec must be no more than MAX_REGRESS_PCT
# (default 20) percent below the baseline's. The comparison only runs
# when the two records carry an identical config fingerprint — a
# different geometry, coding preset, compiler, or build flag makes the
# rates incomparable, so the gate reports the mismatch and skips rather
# than fail on an apples-to-oranges diff. Set IDA_BENCH_GATE_SKIP=1 to
# bypass the rate comparison (e.g. on a throttled CI box).
#
# Usage: tools/check_bench_json.sh <file.json> [baseline.json [max_regress_pct]]
set -eu

FILE="${1:?usage: check_bench_json.sh <file.json> [baseline.json [max_regress_pct]]}"
BASELINE="${2:-}"
MAX_REGRESS_PCT="${3:-20}"

fail() {
    echo "check_bench_json: FAIL - $1 ($FILE)" >&2
    exit 1
}

[ -f "$FILE" ] || fail "file missing"

for key in bench commit; do
    grep -Eq "\"$key\": \"[^\"]+\"" "$FILE" || \
        fail "missing string field '$key'"
done

# Numeric fields must be present and positive (a zero rate means the
# benchmark's timer or counter is broken).
for key in events_per_sec wall_ms; do
    grep -Eq "\"$key\": [0-9]*\.?[0-9]+" "$FILE" || \
        fail "missing numeric field '$key'"
    grep -Eq "\"$key\": 0(\.0*)?[,}\n ]*\$" "$FILE" && \
        fail "field '$key' is zero" || true
done

grep -q '"config": {' "$FILE" || fail "missing config fingerprint"

echo "check_bench_json: OK ($FILE)"

[ -n "$BASELINE" ] || exit 0

# ---- regression gate -------------------------------------------------
[ -f "$BASELINE" ] || fail "baseline missing ($BASELINE)"

if [ "${IDA_BENCH_GATE_SKIP:-0}" = "1" ]; then
    echo "check_bench_json: gate SKIPPED (IDA_BENCH_GATE_SKIP=1)"
    exit 0
fi

# The fingerprint is everything from the "config" key to EOF; both
# records come out of the same JsonWriter, so a byte diff is exact.
fingerprint() {
    sed -n '/"config": {/,$p' "$1"
}
# A self-skip must be loud: CI logs get one unmissable line naming the
# reason, so a silently-never-run gate can't masquerade as a pass.
if [ "$(fingerprint "$FILE")" != "$(fingerprint "$BASELINE")" ]; then
    echo "check_bench_json: gate SKIPPED (fingerprint mismatch) -" \
         "config fingerprint differs from baseline ($BASELINE);" \
         "rates are not comparable"
    exit 0
fi

RATE_FIELD=events_per_sec
rate() {
    grep -Eo "\"$RATE_FIELD\": [0-9.eE+-]+" "$1" | awk '{print $2}'
}
FRESH="$(rate "$FILE")"
BASE="$(rate "$BASELINE")"
[ -n "$FRESH" ] && [ -n "$BASE" ] || fail "cannot extract $RATE_FIELD"

if awk -v f="$FRESH" -v b="$BASE" -v p="$MAX_REGRESS_PCT" \
       'BEGIN { exit !(f < b * (1.0 - p / 100.0)) }'; then
    fail "$RATE_FIELD regression: $FRESH vs baseline $BASE (>${MAX_REGRESS_PCT}% below)"
fi
echo "check_bench_json: gate OK ($FRESH vs baseline $BASE," \
     "limit -${MAX_REGRESS_PCT}%)"
