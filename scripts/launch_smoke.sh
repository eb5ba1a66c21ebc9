#!/usr/bin/env bash
# Launcher smoke test against the real corona-launch binary: 2 local
# shard worker processes on a small corner of the paper grid (the
# fig9.scenario grid and seeding cut to 2 workloads x 2 configs at 200
# requests), one injected crash (CORONA_LAUNCH_TEST_CRASH makes shard
# 2's first worker die mid-checkpoint-write with torn trailing bytes),
# bounded retries with backoff, checkpoint merge, and --verify
# asserting the merged CSV/JSONL/summary bytes are identical to an
# uninterrupted un-sharded in-process run.
#
# Usage: scripts/launch_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
DIR="${BUILD}/launch-smoke"
rm -rf "${DIR}"
mkdir -p "${DIR}"

cat > "${DIR}/corner.scenario" <<'SCENARIO'
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
SCENARIO

CORONA_LAUNCH_TEST_CRASH=2 "${BUILD}/corona-launch" \
  --scenario "${DIR}/corner.scenario" --shards 2 --jobs 2 \
  --dir "${DIR}" --retries 2 --backoff 0.1 \
  --csv "${DIR}/merged.csv" --jsonl "${DIR}/merged.jsonl" \
  --summary "${DIR}/merged_summary.csv" --verify

# The injected crash must actually have fired and been retried, or
# the parity check above proved nothing about the retry path.
test -f "${DIR}/shard2.ckpt.crashed"
echo "launch smoke: OK (crash injected, shard retried, merge verified)"
