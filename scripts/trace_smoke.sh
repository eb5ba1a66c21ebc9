#!/usr/bin/env bash
# Trace-workload smoke test against the real corona-trace / corona-run
# / corona-launch binaries:
#
#   1. corona-trace synth writes the demo .ctrace the shipped
#      scenarios/trace_demo.scenario replays; inspect validates the
#      container and reports the expected census, and a truncated copy
#      is rejected with an offset-numbered diagnostic.
#   2. corona-trace capture records a registry generator's miss
#      stream through a full simulation; the capture inspects clean.
#   3. corona-run scenarios/trace_demo.scenario is deterministic:
#      two runs of copies that name their own csv write byte-identical
#      CSV sinks.
#   4. A sharded run of the same scenario (CORONA_SHARD=1/2 + 2/2 with
#      per-shard checkpoints) merges + replays to the exact bytes of
#      the un-sharded run, and corona-launch --verify distributes it
#      over corona-run shard workers with the same guarantee.
#   5. The campaign obs rollup the scenario writes renders through
#      corona-stats report.
#
# Runs before scenario_smoke.sh in check.sh: that smoke --prints every
# shipped scenario, and trace_demo.scenario resolves (eagerly, by
# design) only once traces/demo.ctrace exists.
#
# Usage: scripts/trace_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/trace-smoke"
rm -rf "${DIR}" trace-demo-obs
mkdir -p "${DIR}" traces

# ---- 1. Synthesize the demo trace; the container validates.
"${BUILD}/corona-trace" synth hotspot traces/demo.ctrace \
  --threads 1024 --records 64 --hot-fraction 0.9 --seed 7 > /dev/null
"${BUILD}/corona-trace" inspect traces/demo.ctrace > "${DIR}/inspect.txt"
grep -q '^threads,1024$' "${DIR}/inspect.txt" || {
  echo "trace smoke: inspect lost the thread count" >&2
  exit 1
}
grep -q '^records,65536$' "${DIR}/inspect.txt" || {
  echo "trace smoke: inspect lost the record count" >&2
  exit 1
}
head -c 100 traces/demo.ctrace > "${DIR}/torn.ctrace"
if "${BUILD}/corona-trace" inspect "${DIR}/torn.ctrace" \
    > /dev/null 2> "${DIR}/torn.err"; then
  echo "trace smoke: a torn trace was accepted" >&2
  exit 1
fi
grep -q 'offset' "${DIR}/torn.err" || {
  echo "trace smoke: torn-trace diagnostic lacks a byte offset" >&2
  exit 1
}

# ---- 2. Capture a registry generator end-to-end.
"${BUILD}/corona-trace" capture Uniform "${DIR}/uniform.ctrace" \
  --requests 2000 > /dev/null
"${BUILD}/corona-trace" inspect "${DIR}/uniform.ctrace" > /dev/null

SCENARIO=scenarios/trace_demo.scenario

# with_execution OUT LINE...: a copy of the replay scenario with an
# [execution] section of LINEs appended (it has none of its own).
with_execution() {
  local out="$1"
  shift
  { cat "${SCENARIO}"; printf '\n[execution]\n'; printf '%s\n' "$@"; } \
    > "${out}"
}

# ---- 3. The shipped replay scenario runs deterministically.
for run in a b; do
  with_execution "${DIR}/${run}.scenario" "csv = ${DIR}/${run}.csv"
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/${run}.scenario"
done
cmp -s "${DIR}/a.csv" "${DIR}/b.csv" || {
  echo "trace smoke: CSV bytes differ across identical replays" >&2
  exit 1
}

# ---- 4. Shard/merge parity, in-process and through the launcher.
CORONA_SHARD=1/2 CORONA_CHECKPOINT="${DIR}/s1.ckpt" \
  "${BUILD}/corona-run" --quiet --no-table "${SCENARIO}"
CORONA_SHARD=2/2 CORONA_CHECKPOINT="${DIR}/s2.ckpt" \
  "${BUILD}/corona-run" --quiet --no-table "${SCENARIO}"
cat "${DIR}/s1.ckpt" "${DIR}/s2.ckpt" > "${DIR}/merged.ckpt"
with_execution "${DIR}/c.scenario" \
  "checkpoint = ${DIR}/merged.ckpt" "csv = ${DIR}/c.csv"
"${BUILD}/corona-run" --quiet --no-table "${DIR}/c.scenario"
cmp -s "${DIR}/a.csv" "${DIR}/c.csv" || {
  echo "trace smoke: sharded+merged CSV differs from un-sharded" >&2
  exit 1
}
with_execution "${DIR}/launch.scenario" "csv = ${DIR}/launch.csv"
"${BUILD}/corona-launch" --scenario "${DIR}/launch.scenario" \
  --shards 2 --jobs 2 --dir "${DIR}/launch" --verify --quiet
cmp -s "${DIR}/a.csv" "${DIR}/launch.csv" || {
  echo "trace smoke: launcher CSV differs from corona-run" >&2
  exit 1
}

# ---- 5. The scenario's obs rollup renders.
"${BUILD}/corona-stats" report trace-demo-obs > "${DIR}/report.txt"
test -s "${DIR}/report.txt" || {
  echo "trace smoke: empty rollup report" >&2
  exit 1
}
rm -rf trace-demo-obs

echo "trace smoke: OK (synth+inspect, torn-trace rejection, capture," \
     "deterministic replay, shard/merge + launcher parity, obs rollup)"
