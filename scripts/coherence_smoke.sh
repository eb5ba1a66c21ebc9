#!/usr/bin/env bash
# Coherent-front-end smoke test against the real corona-run /
# corona-stats binaries:
#
#   1. Parity gate: a grid run with frontend=coherent and a
#      pass-through hierarchy (l1_kib=0 l2_kib=0, labelled like the
#      baseline) writes byte-identical CSV sink output to the same
#      grid through the miss-stream front end, at 1 and 4 workers.
#   2. A coherent scenario with caches and sharing workloads runs end
#      to end; corona-stats validates the registry snapshots, which
#      must publish cache/ + coherence/ paths and show the
#      broadcast-vs-unicast transport difference (the broadcast config
#      uses the bus, the unicast config sends per-sharer messages).
#
# Usage: scripts/coherence_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/coherence-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

# ---- 1. Pass-through parity gate.
parity_scenario() { # $1 = config line; $2 = csv sink
  cat <<EOF
[scenario]
name = coherence-parity
requests = 1500
seed_policy = derived
seeds = 0,1

[workloads]
workload = Uniform
workload = Hot Spot

[configs]
config = $1

[execution]
progress = off
csv = $2
EOF
}

parity_scenario "XBar/OCM" "${DIR}/miss.csv" > "${DIR}/miss.scenario"

CORONA_JOBS=1 \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/miss.scenario"
for jobs in 1 4; do
  parity_scenario \
    "XBar/OCM frontend=coherent l1_kib=0 l2_kib=0 label=XBar/OCM" \
    "${DIR}/pass${jobs}.csv" > "${DIR}/pass${jobs}.scenario"
  CORONA_JOBS=${jobs} \
    "${BUILD}/corona-run" --quiet --no-table "${DIR}/pass${jobs}.scenario"
  cmp -s "${DIR}/miss.csv" "${DIR}/pass${jobs}.csv" || {
    echo "coherence smoke: pass-through CSV differs from" \
         "miss-stream at ${jobs} workers" >&2
    exit 1
  }
done

# ---- 2. Coherent scenario with real caches and sharing traffic.
cat > "${DIR}/coherent.scenario" <<EOF
[scenario]
name = coherence-smoke
requests = 2000
seed_policy = fixed

[workloads]
workload = Producer-Consumer
workload = False Sharing lines=32

[configs]
config = XBar/OCM frontend=coherent inval_policy=unicast label=unicast
config = XBar/OCM frontend=coherent label=broadcast

[execution]
progress = off
csv = ${DIR}/coherent.csv

[observability]
snapshot = on
dir = ${DIR}/snapshots
EOF

CORONA_JOBS=1 \
  "${BUILD}/corona-run" --quiet --no-table "${DIR}/coherent.scenario"

# Every run's snapshot parses and publishes the coherent planes.
for run in 0 1 2 3; do
  snap="${DIR}/snapshots/run${run}.snapshot.csv"
  "${BUILD}/corona-stats" snapshot "${snap}" > /dev/null
  for prefix in cache/0/l1/hits cache/0/l2/misses \
                coherence/msg/getm coherence/frontend/inval_hits; do
    grep -q "^${prefix}," "${snap}" || {
      echo "coherence smoke: run${run} snapshot lacks ${prefix}" >&2
      exit 1
    }
  done
done

counter() { # $1 = run, $2 = path
  grep "^$2," "${DIR}/snapshots/run$1.snapshot.csv" | cut -d, -f2
}

# Runs 0/2 are unicast, 1/3 broadcast (workload-major order). The
# transports must actually diverge: no bus messages under unicast,
# plenty under broadcast.
for run in 0 2; do
  [ "$(counter ${run} coherence/frontend/broadcasts)" = "0" ] || {
    echo "coherence smoke: unicast run${run} used the broadcast bus" >&2
    exit 1
  }
  [ "$(counter ${run} coherence/msg/inval)" != "0" ] || {
    echo "coherence smoke: unicast run${run} sent no invalidations" >&2
    exit 1
  }
done
for run in 1 3; do
  [ "$(counter ${run} coherence/frontend/broadcasts)" != "0" ] || {
    echo "coherence smoke: broadcast run${run} never used the bus" >&2
    exit 1
  }
done

echo "coherence smoke: OK (pass-through parity at 1+4 workers," \
     "coherent snapshots valid, transports diverge)"
