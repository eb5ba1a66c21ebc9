#!/usr/bin/env bash
# Ledger check: every row of FIDELITY.md's ledger names one test that
# exists in the build, or says why it has none.
#
# A row's check column is `binary Suite.Name`. The script runs
# BUILD/binary --gtest_list_tests --gtest_filter=Suite.Name and fails
# unless exactly that test is listed, so renaming or deleting a test
# that backs a row breaks the ledger loudly. A row whose check is "—"
# must have the status "input" or "open (...)". The tests themselves
# run under ctest; this script only checks that the ledger names them.
#
# Usage: scripts/ledger_check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
LEDGER="FIDELITY.md"

fail() {
  echo "ledger check: $*" >&2
  exit 1
}

# The ledger's rows: table lines whose first cell is a row id, L1, L2,
# ... Cells are split on "|" and trimmed; cell 8 is the check and cell
# 9 the status.
rows="$(awk -F'|' '
  /^\| *L[0-9]+ *\|/ {
    for (i = 2; i <= NF; ++i) gsub(/^ +| +$/, "", $i)
    print $2 "\t" $8 "\t" $9
  }' "${LEDGER}")"
[ -n "${rows}" ] || fail "no ledger rows found in ${LEDGER}"

checked=0
unchecked=0
while IFS=$'\t' read -r id check status; do
  if [ "${check}" = "—" ]; then
    case "${status}" in
      input|open\ \(*\)) unchecked=$((unchecked + 1)); continue ;;
      *) fail "row ${id} names no test but its status is \"${status}\"" \
              "(want input or open (...))" ;;
    esac
  fi
  [[ "${check}" =~ ^\`([a-z0-9_]+)\ ([A-Za-z0-9_]+\.[A-Za-z0-9_]+)\`$ ]] ||
    fail "row ${id}: check \"${check}\" is not \`binary Suite.Name\`"
  binary="${BASH_REMATCH[1]}"
  test="${BASH_REMATCH[2]}"
  [ -x "${BUILD}/${binary}" ] ||
    fail "row ${id}: ${BUILD}/${binary} is not built"
  # gtest lists a matching test as "Suite." then "  Name"; anything
  # else (gtest_main's banner) is ignored.
  listed="$("${BUILD}/${binary}" --gtest_list_tests \
              --gtest_filter="${test}" | awk '
    /^[A-Za-z_][A-Za-z0-9_\/]*\.( |$)/ { suite = $1; next }
    /^  [A-Za-z_]/ { print suite $1 }')"
  [ "${listed}" = "${test}" ] ||
    fail "row ${id}: ${binary} lists \"${listed}\" for ${test}," \
         "not exactly that test"
  checked=$((checked + 1))
done <<< "${rows}"

echo "ledger check: OK (${checked} rows each name one listed test," \
     "${unchecked} input/open rows without one)"
