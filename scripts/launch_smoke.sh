#!/usr/bin/env bash
# Launcher smoke test against the real corona-launch and corona-run
# binaries: 2 corona-run shard workers on a small corner of the paper
# grid (the fig9.scenario grid and seeding cut to 2 workloads x 2
# configs at 200 requests), one injected crash (a --cmd wrapper makes
# shard 2's first worker die mid-checkpoint-write with torn trailing
# bytes), bounded retries with backoff, checkpoint merge, and --verify
# asserting the merged CSV/JSONL/summary bytes — written to the
# scenario's own sink paths — are identical to an uninterrupted
# un-sharded in-process run.
#
# Usage: scripts/launch_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/launch-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

cat > "${DIR}/corner.scenario" <<SCENARIO
[scenario]
name = paper-sweep
requests = 200
warmup_requests = 40
seed_policy = fixed

[workloads]
workload = Uniform
workload = Hot Spot

[configs]
config = LMesh/ECM
config = HMesh/ECM

[execution]
csv = ${DIR}/merged.csv
jsonl = ${DIR}/merged.jsonl
summary = ${DIR}/merged_summary.csv
SCENARIO

# The worker: corona-run, except that shard 2's first attempt then
# dies as if mid-write — its checkpoint keeps the header and first
# row plus a torn partial row, and it exits 9.
cat > "${DIR}/crash_once.sh" <<'WORKER'
#!/bin/sh
# Usage: crash_once.sh CORONA_RUN SCENARIO
set -e
"$1" --quiet --no-table "$2"
marker="${CORONA_CHECKPOINT}.crashed"
if [ "${CORONA_SHARD}" = "2/2" ] && [ ! -e "${marker}" ]; then
  echo "crashed once" > "${marker}"
  head -n 2 "${CORONA_CHECKPOINT}" > "${CORONA_CHECKPOINT}.torn"
  printf '999,torn-mid-wri' >> "${CORONA_CHECKPOINT}.torn"
  mv "${CORONA_CHECKPOINT}.torn" "${CORONA_CHECKPOINT}"
  exit 9
fi
WORKER

"${BUILD}/corona-launch" \
  --scenario "${DIR}/corner.scenario" --shards 2 --jobs 2 \
  --dir "${DIR}" --retries 2 --backoff 0.1 \
  --cmd "sh ${DIR}/crash_once.sh ${BUILD}/corona-run ${DIR}/corner.scenario" \
  --verify

# The injected crash must actually have fired and been retried, or
# the parity check above proved nothing about the retry path.
test -f "${DIR}/shard2.ckpt.crashed"
for sink in merged.csv merged.jsonl merged_summary.csv; do
  test -s "${DIR}/${sink}"
done
echo "launch smoke: OK (crash injected, shard retried, merge verified)"
