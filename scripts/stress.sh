#!/usr/bin/env bash
# scripts/stress.sh [race] — runs the stress list, scripts/stress.txt: every
# row whose race column is "no", or with `race` every row whose race column is
# "race", under the race detector. Each row is one `go test -count=N -run
# PATTERN PACKAGE`, at the row's GOMAXPROCS unless that is "-"; the
# environment (CP_WORKERS among it) passes through. Every row runs and prints
# its wall time, and the list's total is printed at the end; the exit status
# is 1 when any row failed, and the failed rows are listed at the end.
set -uo pipefail
mode="${1:-no}"
case "$mode" in
  no) flags=() ;;
  race) flags=(-race) ;;
  *) echo "usage: scripts/stress.sh [race]" >&2; exit 2 ;;
esac
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root" || exit 2
failed=()
# secs prints a span of microseconds as seconds with one decimal.
secs() { printf '%d.%ds' $(($1 / 1000000)) $(($1 / 100000 % 10)); }
start=${EPOCHREALTIME/./} rows=0
while read -r -u 3 pkg pattern count procs race extra; do
  [[ -z "$pkg" || "$pkg" == \#* ]] && continue
  if [[ -n "$extra" || ! "$count" =~ ^[0-9]+$ || ! "$procs" =~ ^([0-9]+|-)$ || ! "$race" =~ ^(no|race)$ ]]; then
    echo "scripts/stress.txt: bad row: $pkg $pattern $count $procs $race $extra" >&2
    exit 2
  fi
  [[ "$race" != "$mode" ]] && continue
  t0=${EPOCHREALTIME/./}
  # A pattern that matches no test would pass without running one.
  if ! grep -q '^Test' <<<"$(go test "${flags[@]}" -list "$pattern" "$pkg")"; then
    echo "scripts/stress.txt: $pattern matches no test in $pkg" >&2
    failed+=("$pkg $pattern")
    continue
  fi
  env=()
  [[ "$procs" != - ]] && env=("GOMAXPROCS=$procs")
  echo "== ${env[*]:+${env[*]} }go test ${flags[*]:+${flags[*]} }-count=$count -run '$pattern' $pkg"
  env "${env[@]}" go test "${flags[@]}" -count="$count" -run "$pattern" "$pkg" || failed+=("$pkg $pattern")
  echo "-- $(secs $((${EPOCHREALTIME/./} - t0))) $pkg $pattern"
  rows=$((rows + 1))
done 3< scripts/stress.txt
echo "stress list ($mode): $rows rows in $(secs $((${EPOCHREALTIME/./} - start)))"
if ((${#failed[@]})); then
  printf 'FAILED: %s\n' "${failed[@]}" >&2
  exit 1
fi
