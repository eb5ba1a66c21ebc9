#!/usr/bin/env bash
# Observability smoke test against the real corona-run / corona-stats
# binaries:
#
#   1. A scenario with every [observability] plane on runs end to end;
#      corona-stats validates each produced file shape (per-run
#      run<N>.obs.bin container, registry snapshot CSV), exports the
#      trace to Chrome JSON (the CI artifact), and the trace actually
#      contains crossbar + memory spans. The exported JSON and CSV are
#      not containers, so corona-stats trace and summary refuse them.
#   2. Off-parity: the same scenario with the [observability] section
#      deleted writes byte-identical CSV sink output — observing a
#      campaign never changes its results.
#   3. Determinism: every per-run obs file and the campaign rollup are
#      byte-identical between a 1-worker and a 4-worker run.
#   4. `corona-stats report` renders the campaign rollup (the CI
#      artifact report.txt), and refuses a --top that is not a
#      positive count with exit 1 and an error naming the value.
#
# Usage: scripts/obs_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/obs-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

# A small observed grid (2 workloads x 1 config x 2 seeds = 4 runs).
scenario() { # $1 = obs dir ("" = no [observability]); $2 = csv sink
  cat <<EOF
[scenario]
name = obs-smoke
requests = 1500
seed_policy = derived
seeds = 0,1

[workloads]
workload = Uniform
workload = Hot Spot

[configs]
config = XBar/OCM

[execution]
progress = off
csv = $2
EOF
  if [ -n "$1" ]; then
    cat <<EOF

[observability]
sample_period = 200000
trace_capacity = 8192
snapshot = on
rollup = on
dir = $1
EOF
  fi
}

scenario "${DIR}/obs1" "${DIR}/on1.csv"    > "${DIR}/on1.scenario"
scenario "${DIR}/obs4" "${DIR}/on4.csv"    > "${DIR}/on4.scenario"
scenario ""            "${DIR}/off.csv"    > "${DIR}/off.scenario"

# ---- 1. Observed run; corona-stats validates every file shape.
CORONA_JOBS=1 \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/on1.scenario"

for run in 0 1 2 3; do
  "${BUILD}/corona-stats" summary \
    "${DIR}/obs1/run${run}.obs.bin" > /dev/null
  "${BUILD}/corona-stats" trace \
    "${DIR}/obs1/run${run}.obs.bin" > "${DIR}/trace${run}.txt"
  "${BUILD}/corona-stats" snapshot \
    "${DIR}/obs1/run${run}.snapshot.csv" net > /dev/null
done
# Chrome trace export with counter tracks — this JSON is what CI
# uploads as the browsable artifact.
"${BUILD}/corona-stats" trace "${DIR}/obs1/run0.obs.bin" \
  --export "${DIR}/run0.trace.json" \
  --counters "${DIR}/obs1/run0.obs.bin" --prefix net

grep -q "^channel_grant," "${DIR}/trace0.txt" || {
  echo "obs smoke: trace has no crossbar channel_grant spans" >&2
  exit 1
}
grep -q "^mc_issue," "${DIR}/trace0.txt" || {
  echo "obs smoke: trace has no memory-controller spans" >&2
  exit 1
}
grep -q '"ph":"C"' "${DIR}/run0.trace.json" || {
  echo "obs smoke: exported trace JSON has no counter tracks" >&2
  exit 1
}

# summary, trace and export read only containers: the JSON and CSV
# they export are refused with exit 1 and an error naming the file.
"${BUILD}/corona-stats" export "${DIR}/obs1/run0.obs.bin" \
  "${DIR}/run0.timeseries.csv"
refused() { # $1 = subcommand, $2 = a file that is not a container
  local status=0
  "${BUILD}/corona-stats" "$1" "$2" > /dev/null 2> "${DIR}/bare.err" ||
    status=$?
  if [ "${status}" -ne 1 ] || ! grep -qF "$2" "${DIR}/bare.err"; then
    echo "obs smoke: corona-stats $1 on $2 must exit 1 naming the" \
         "file (exit ${status})" >&2
    exit 1
  fi
}
refused trace "${DIR}/run0.trace.json"
refused summary "${DIR}/run0.timeseries.csv"
refused export "${DIR}/run0.timeseries.csv"

# ---- 2. Observability never changes the results.
CORONA_JOBS=1 \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/off.scenario"
cmp -s "${DIR}/on1.csv" "${DIR}/off.csv" || {
  echo "obs smoke: CSV sink bytes differ with observability on" >&2
  exit 1
}

# ---- 3. Per-run obs files + rollup are worker-count invariant.
CORONA_JOBS=4 \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/on4.scenario"
cmp -s "${DIR}/on1.csv" "${DIR}/on4.csv" || {
  echo "obs smoke: CSV sink bytes differ across worker counts" >&2
  exit 1
}
for run in 0 1 2 3; do
  for suffix in obs.bin snapshot.csv; do
    cmp -s "${DIR}/obs1/run${run}.${suffix}" \
           "${DIR}/obs4/run${run}.${suffix}" || {
      echo "obs smoke: run${run}.${suffix} differs at 1 vs 4 workers" >&2
      exit 1
    }
  done
done
cmp -s "${DIR}/obs1/rollup.csv" "${DIR}/obs4/rollup.csv" || {
  echo "obs smoke: rollup.csv differs at 1 vs 4 workers" >&2
  exit 1
}

# ---- 4. The campaign report renders from the rollup, and a --top
# that is not a positive count is refused.
"${BUILD}/corona-stats" report "${DIR}/obs1" > "${DIR}/report.txt"
grep -q "^campaign rollup:" "${DIR}/report.txt" || {
  echo "obs smoke: campaign report missing rollup header" >&2
  exit 1
}
for top in -1 99999999999999999999999 " 3"; do
  status=0
  "${BUILD}/corona-stats" report "${DIR}/obs1" --top "${top}" \
    > /dev/null 2> "${DIR}/top.err" || status=$?
  if [ "${status}" -ne 1 ] || ! grep -qF "\"${top}\"" "${DIR}/top.err"; then
    echo "obs smoke: report --top \"${top}\" must exit 1 naming the" \
         "value (exit ${status})" >&2
    exit 1
  fi
done

echo "obs smoke: OK (file shapes valid, exports refused as input, sink" \
     "off-parity, obs bytes worker-count invariant, rollup report" \
     "rendered, bad --top refused)"
