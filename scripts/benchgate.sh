#!/usr/bin/env bash
# scripts/benchgate.sh BASE [PAIRS] — the benchmark regression gate.
# Runs the registered benchmark (bash benchmark/run.sh) PAIRS times on BASE
# and on the working tree, alternating which side goes first so runner drift
# lands on both, then prints the head benchmark's -compare table. Exit status
# is -compare's: 1 when any end-to-end metric x workload is `worse` beyond its
# BENCHMARK.json bound; a failed operation or stream check fails its run (and
# the gate) before that. BASE is exported with `git archive` into a temporary
# directory ($TMPDIR) that is removed on exit; the repository is not touched.
set -euo pipefail
base="${1:?usage: scripts/benchgate.sh BASE [PAIRS]}"
pairs="${2:-3}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/A" "$tmp/B"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
for i in $(seq 1 "$pairs"); do
  order="base head"
  if ((i % 2 == 0)); then order="head base"; fi
  for side in $order; do
    echo "== pair $i/$pairs: $side" >&2
    if [ "$side" = base ]; then
      bash "$tmp/base/benchmark/run.sh" -seed "$i" -out "$tmp/A/run$(printf %02d "$i").json" >/dev/null
    else
      bash "$root/benchmark/run.sh" -seed "$i" -out "$tmp/B/run$(printf %02d "$i").json" >/dev/null
    fi
  done
done
bash "$root/benchmark/run.sh" -compare "$tmp/A" "$tmp/B"
