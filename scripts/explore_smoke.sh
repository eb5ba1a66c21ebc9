#!/usr/bin/env bash
# Explorer smoke test: corona-explore must evaluate its default
# >=10k-point design grid quickly, produce a non-empty Pareto
# frontier CSV, and be bit-deterministic — two runs with the same
# seed must write identical bytes (the campaign engine's reproducibility
# bar applies to the analytical layer too). On a small grid, --confirm
# then simulates the top frontier points on corona-run shard workers
# and prints one model-vs-simulator row per point.
#
# Usage: scripts/explore_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/explore-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

run_explore() {
  "${BUILD}/corona-explore" --seed 7 \
    --pareto "$1" --csv "$2" --top 3 > "$3" 2> "${DIR}/stderr.log"
}

run_explore "${DIR}/frontier1.csv" "${DIR}/grid1.csv" "${DIR}/top1.txt"
run_explore "${DIR}/frontier2.csv" "${DIR}/grid2.csv" "${DIR}/top2.txt"

# The default grid must actually be >= 10k points.
POINTS="$(grep -oE 'grid of [0-9]+' "${DIR}/stderr.log" | grep -oE '[0-9]+')"
test "${POINTS}" -ge 10000 || {
  echo "explore smoke: FAIL — default grid has only ${POINTS} points" >&2
  exit 1
}

# Non-empty frontier: a header plus at least one design point.
FRONTIER_ROWS="$(wc -l < "${DIR}/frontier1.csv")"
test "${FRONTIER_ROWS}" -ge 2 || {
  echo "explore smoke: FAIL — empty Pareto frontier" >&2
  exit 1
}

# Determinism: identical bytes across the two runs.
cmp "${DIR}/frontier1.csv" "${DIR}/frontier2.csv" || {
  echo "explore smoke: FAIL — Pareto CSV differs between runs" >&2
  exit 1
}
cmp "${DIR}/grid1.csv" "${DIR}/grid2.csv" || {
  echo "explore smoke: FAIL — grid CSV differs between runs" >&2
  exit 1
}
cmp "${DIR}/top1.txt" "${DIR}/top2.txt" || {
  echo "explore smoke: FAIL — ranking differs between runs" >&2
  exit 1
}

# Confirmation over corona-run shard workers: three points, three rows.
"${BUILD}/corona-explore" --clusters 16,64 --guides 1 --lambdas 64 \
  --networks xbar,hmesh --memory ocm --mem-channels 1 \
  --workloads Uniform --confirm 3 --confirm-requests 300 \
  --shards 2 --jobs 2 --dir "${DIR}/confirm" \
  > "${DIR}/confirm.txt" 2> "${DIR}/confirm.log"
CONFIRMED="$(awk '/^== Frontier confirmation/ { table = 1; next }
                  table && /^---/ { rows = 1; next }
                  rows && NF { n++ }
                  END { print n + 0 }' "${DIR}/confirm.txt")"
test "${CONFIRMED}" -eq 3 || {
  echo "explore smoke: FAIL — ${CONFIRMED} confirmation rows, not 3" >&2
  exit 1
}

echo "explore smoke: OK (${POINTS}-point grid, $((FRONTIER_ROWS - 1))-point frontier, deterministic, 3 points confirmed)"
