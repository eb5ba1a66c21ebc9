#!/usr/bin/env bash
# Scenario smoke test against the real corona-run / corona-stats
# binaries and the shipped scenario files:
#
#   1. Every shipped scenarios/*.scenario parses, and its canonical
#      serialisation (corona-run --print) is a fixed point — printing
#      the printed form reproduces it byte for byte.
#   2. corona-run scenarios/smoke.scenario is deterministic: two runs
#      of copies that name their own csv sink write byte-identical
#      bytes.
#   3. A run resumed from a checkpoint cut to 5 of its 24 rows plus a
#      torn partial row writes the same CSV as an uninterrupted run,
#      and leaves a complete checkpoint (header + 24 rows).
#   4. corona-stats figures renders Figures 8-11 from the CSV of a
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
  with_execution "${DIR}/${run}.scenario" "csv = ${DIR}/${run}.csv"
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/${run}.scenario"
done
cmp -s "${DIR}/a.csv" "${DIR}/b.csv" || {
  echo "scenario smoke: CSV bytes differ across identical runs" >&2
  exit 1
}

# ---- 3. A crashed run resumes from its checkpoint: cut the finished
# checkpoint to its header, 5 rows and a torn partial row, as a kill
# mid-write leaves it, then run again. The resumed run replays the 5
# rows, re-simulates the rest and writes the uninterrupted CSV.
CKPT="${DIR}/r.ckpt"
with_execution "${DIR}/r.scenario" \
  "checkpoint = ${CKPT}" "csv = ${DIR}/r.csv"
"${BUILD}/corona-run" --quiet --no-table "${DIR}/r.scenario"
{ head -n 6 "${CKPT}"; sed -n 7p "${CKPT}" | head -c 30; } > "${DIR}/torn"
mv "${DIR}/torn" "${CKPT}"
"${BUILD}/corona-run" --quiet --no-table "${DIR}/r.scenario"
cmp -s "${DIR}/a.csv" "${DIR}/r.csv" || {
  echo "scenario smoke: resumed CSV differs from an uninterrupted run" >&2
  exit 1
}
lines="$(wc -l < "${CKPT}")"
[ "${lines}" -eq 25 ] || {
  echo "scenario smoke: resumed checkpoint holds ${lines} lines," \
       "expected 25 (header + 24 runs)" >&2
  exit 1
}

# ---- 4. The paper figures render from the run's own CSV.
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
     "checkpoint resume parity, figures rendered)"
