#!/usr/bin/env bash
# Scenario smoke test against the real corona-run / corona-launch
# binaries and the shipped scenario files:
#
#   1. Every shipped scenarios/*.scenario parses, and its canonical
#      serialisation (corona-run --print) is a fixed point — printing
#      the printed form reproduces it byte for byte.
#   2. corona-run scenarios/smoke.scenario is deterministic: two runs
#      of copies that name their own csv/jsonl sinks write
#      byte-identical bytes.
#   3. A sharded corona-run of the same scenario (CORONA_SHARD=1/2 +
#      2/2 with per-shard checkpoints) merges + replays to the exact
#      bytes of the un-sharded run.
#   4. corona-launch --scenario distributes a copy that names its own
#      csv over corona-run shard workers (which never open that path;
#      the launcher's merge writes it), and --verify asserts merged
#      sink bytes equal an un-sharded in-process run.
#   5. corona-stats figures renders Figures 8-11 from the CSV of a
#      reduced scenarios/fig9.scenario run (500 requests, 100
#      warm-up), and refuses a copy torn mid-row with a fatal: line.
#
# Usage: scripts/scenario_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/scenario-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

# ---- 1. Shipped scenarios parse; --print is a fixed point.
for f in scenarios/*.scenario; do
  "${BUILD}/corona-run" --print "${f}" > "${DIR}/print1.txt"
  "${BUILD}/corona-run" --print "${DIR}/print1.txt" > "${DIR}/print2.txt"
  cmp -s "${DIR}/print1.txt" "${DIR}/print2.txt" || {
    echo "scenario smoke: --print of ${f} is not byte-stable" >&2
    exit 1
  }
done

SCENARIO=scenarios/smoke.scenario

# with_execution OUT LINE...: a copy of smoke.scenario with LINEs
# added under its [execution] header.
with_execution() {
  local out="$1"
  shift
  local lines
  lines="$(printf '\\n%s' "$@")"
  sed "s|^\[execution\]\$|[execution]${lines}|" "${SCENARIO}" > "${out}"
  for line in "$@"; do
    grep -qxF "${line}" "${out}"
  done
}

# ---- 2. Deterministic bytes across independent runs.
for run in a b; do
  with_execution "${DIR}/${run}.scenario" \
    "csv = ${DIR}/${run}.csv" "jsonl = ${DIR}/${run}.jsonl"
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/${run}.scenario"
done
cmp -s "${DIR}/a.csv" "${DIR}/b.csv" || {
  echo "scenario smoke: CSV bytes differ across identical runs" >&2
  exit 1
}
cmp -s "${DIR}/a.jsonl" "${DIR}/b.jsonl" || {
  echo "scenario smoke: JSONL bytes differ across identical runs" >&2
  exit 1
}

# ---- 3. Sharded + resumed runs reproduce the un-sharded bytes: two
# shard processes checkpoint their halves, then an un-sharded run over
# the concatenated checkpoint replays everything without re-simulating.
CORONA_SHARD=1/2 CORONA_CHECKPOINT="${DIR}/s1.ckpt" \
  "${BUILD}/corona-run" --quiet --no-table "${SCENARIO}"
CORONA_SHARD=2/2 CORONA_CHECKPOINT="${DIR}/s2.ckpt" \
  "${BUILD}/corona-run" --quiet --no-table "${SCENARIO}"
cat "${DIR}/s1.ckpt" "${DIR}/s2.ckpt" > "${DIR}/merged.ckpt"
with_execution "${DIR}/c.scenario" \
  "checkpoint = ${DIR}/merged.ckpt" "csv = ${DIR}/c.csv"
"${BUILD}/corona-run" --quiet --no-table "${DIR}/c.scenario"
cmp -s "${DIR}/a.csv" "${DIR}/c.csv" || {
  echo "scenario smoke: sharded+merged CSV differs from un-sharded" >&2
  exit 1
}

# ---- 4. The launcher distributes a scenario that names its own csv
# to corona-run workers; --verify re-runs un-sharded in-process and
# compares merged sink bytes.
with_execution "${DIR}/launch.scenario" "csv = ${DIR}/launch.csv"
"${BUILD}/corona-launch" --scenario "${DIR}/launch.scenario" \
  --shards 2 --jobs 2 --dir "${DIR}/launch" --verify --quiet
cmp -s "${DIR}/a.csv" "${DIR}/launch.csv" || {
  echo "scenario smoke: launcher CSV differs from corona-run" >&2
  exit 1
}

# ---- 5. The paper figures render from the run's own CSV.
sed -e 's/^requests = .*/requests = 500/' \
    -e 's/^warmup_requests = .*/warmup_requests = 100/' \
    -e "s|^csv = .*|csv = ${DIR}/fig9.csv|" \
    scenarios/fig9.scenario > "${DIR}/fig9_small.scenario"
grep -qx 'requests = 500' "${DIR}/fig9_small.scenario"
grep -qx 'warmup_requests = 100' "${DIR}/fig9_small.scenario"
grep -qxF "csv = ${DIR}/fig9.csv" "${DIR}/fig9_small.scenario"
"${BUILD}/corona-run" --quiet --no-table "${DIR}/fig9_small.scenario"
"${BUILD}/corona-stats" figures "${DIR}/fig9.csv" > "${DIR}/figures.txt"
for n in 8 9 10 11; do
  grep -q "^== Figure ${n}: " "${DIR}/figures.txt" || {
    echo "scenario smoke: figures output lacks Figure ${n}" >&2
    exit 1
  }
done
# A CSV whose last row is cut mid-line is refused, not rendered.
head -c -20 "${DIR}/fig9.csv" > "${DIR}/fig9_torn.csv"
status=0
"${BUILD}/corona-stats" figures "${DIR}/fig9_torn.csv" \
  > /dev/null 2> "${DIR}/torn.err" || status=$?
if [ "${status}" -ne 1 ] || ! grep -q "fatal:" "${DIR}/torn.err"; then
  echo "scenario smoke: a torn figures CSV must exit 1 with a fatal:" \
       "line (exit ${status})" >&2
  exit 1
fi

echo "scenario smoke: OK (print fixed point, deterministic bytes," \
     "shard/merge parity, corona-run worker launch verified, figures" \
     "rendered)"
