#!/usr/bin/env bash
# Parallel-executor smoke test against the real corona-run binary: the
# sharded engine's bit-identity contract, enforced on sink bytes.
#
#   1. Crossbar scenario: sim_threads = 2 and 4 produce CSV and summary
#      sink bytes identical to sim_threads = 1 (the serial windowed
#      engine), across a multi-seed grid with pooled contexts.
#   2. Mesh scenario: same gate on the electrical-mesh fabric (distinct
#      lookahead and fabric-entity wiring).
#   3. Fresh-context parity: reuse_systems = off at 4 shards matches
#      the pooled bytes — pooling and sharding compose.
#   4. Observability: sampler + snapshot + rollup files are
#      shard-count-invariant byte for byte (barrier-driven sampling
#      sees the same quiescent states the serial sampler sees).
#   5. Fallback: a scenario the executor cannot partition (warm-up)
#      runs with sim_threads = 4 anyway, bit-identical to serial — the
#      fallback is silent and safe.
#
# Each run is a copy of its scenario with sim_threads and the two
# sink paths written under [execution].
#
# Usage: scripts/parallel_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/parallel-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

scenario() { # $1 = config expr; $2 = warmup; $3 = obs dir ("" = none)
  cat <<EOF
[scenario]
name = parallel-smoke
requests = 2500
warmup_requests = $2
seed_policy = derived
seeds = 0,1

[workloads]
workload = Uniform
workload = Tornado

[configs]
config = $1

[execution]
progress = off
EOF
  if [ -n "$3" ]; then
    cat <<EOF

[observability]
sample_period = 200000
snapshot = on
rollup = on
dir = $3
EOF
  fi
}

run() { # $1 = scenario file; $2 = output stem; $3 = sim_threads
  local keys="sim_threads = $3\ncsv = ${DIR}/$2.csv"
  keys+="\nsummary = ${DIR}/$2.summary.csv"
  sed "s|^\[execution\]\$|[execution]\n${keys}|" "$1" > "${DIR}/$2.scenario"
  grep -qx "sim_threads = $3" "${DIR}/$2.scenario"
  CORONA_JOBS=1 "${BUILD}/corona-run" --quiet --no-table "${DIR}/$2.scenario"
}

expect_same() { # $1 = stem a; $2 = stem b; $3 = label
  for ext in csv summary.csv; do
    cmp -s "${DIR}/$1.${ext}" "${DIR}/$2.${ext}" || {
      echo "parallel smoke: $3 — ${ext} sink bytes differ" >&2
      exit 1
    }
  done
}

# ---- 1. Crossbar: serial vs 2 and 4 shards.
scenario "XBar/OCM" 0 "" > "${DIR}/xbar.scenario"
run "${DIR}/xbar.scenario" xbar-serial 1
run "${DIR}/xbar.scenario" xbar-s2 2
run "${DIR}/xbar.scenario" xbar-s4 4
expect_same xbar-serial xbar-s2 "crossbar at 2 shards"
expect_same xbar-serial xbar-s4 "crossbar at 4 shards"

# ---- 2. Mesh fabric: same gate, different lookahead and wiring.
scenario "HMesh/ECM" 0 "" > "${DIR}/mesh.scenario"
run "${DIR}/mesh.scenario" mesh-serial 1
run "${DIR}/mesh.scenario" mesh-s4 4
expect_same mesh-serial mesh-s4 "mesh at 4 shards"

# ---- 3. Fresh contexts compose with sharding.
sed 's/^progress = off$/progress = off\nreuse_systems = off/' \
  "${DIR}/xbar.scenario" > "${DIR}/fresh.scenario"
run "${DIR}/fresh.scenario" xbar-fresh4 4
expect_same xbar-serial xbar-fresh4 "fresh contexts at 4 shards"

# ---- 4. Observability planes are shard-count-invariant.
scenario "XBar/OCM" 0 "${DIR}/obs1" > "${DIR}/obs1.scenario"
scenario "XBar/OCM" 0 "${DIR}/obs4" > "${DIR}/obs4.scenario"
run "${DIR}/obs1.scenario" obs-serial 1
run "${DIR}/obs4.scenario" obs-s4 4
expect_same obs-serial obs-s4 "observed run at 4 shards"
for run_index in 0 1 2 3; do
  for suffix in obs.bin snapshot.csv; do
    cmp -s "${DIR}/obs1/run${run_index}.${suffix}" \
           "${DIR}/obs4/run${run_index}.${suffix}" || {
      echo "parallel smoke: run${run_index}.${suffix} differs at 4 shards" >&2
      exit 1
    }
  done
done
cmp -s "${DIR}/obs1/rollup.csv" "${DIR}/obs4/rollup.csv" || {
  echo "parallel smoke: rollup.csv differs at 4 shards" >&2
  exit 1
}

# ---- 5. Warm-up cannot partition: the fallback is silent and exact.
scenario "XBar/OCM" 500 "" > "${DIR}/warm.scenario"
run "${DIR}/warm.scenario" warm-serial 0
run "${DIR}/warm.scenario" warm-s4 4
expect_same warm-serial warm-s4 "warm-up fallback"

echo "parallel smoke: OK (xbar + mesh byte parity at 2/4 shards," \
     "pooled + fresh, obs invariant, warm-up fallback exact)"
