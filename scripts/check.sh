#!/usr/bin/env bash
# Tier-1 verification: configure, build everything, run the test suite,
# check that every FIDELITY.md row names a test the build lists, then
# run the smokes. Extra arguments are forwarded to the CMake configure
# step, e.g.
#   scripts/check.sh -DCORONA_WERROR=ON
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S . "$@"
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"
scripts/ledger_check.sh build
scripts/scenario_smoke.sh build
scripts/obs_smoke.sh build
scripts/coherence_smoke.sh build
scripts/parallel_smoke.sh build
