#!/usr/bin/env bash
# scripts/rungate.sh BASE PATTERN PAIRS LABEL — the rung gate: an interleaved
# A/B run of the in-package Go benchmarks, written to BENCH_rungs_LABEL.json
# at the repository root.
#
# PATTERN is a '|'-separated list of `go test -bench` patterns, each run on
# its own (so `BenchmarkDecodeStep$|BenchmarkPrefillChunk/last` keeps its
# sub-benchmark level). The script builds the test binary of every package
# whose benchmarks match, once from BASE and once from the working tree, and
# runs PAIRS pairs of them in ABBA order — base first in odd pairs, head
# first in even ones, so runner drift lands on both sides — at one fixed
# -test.benchtime and at -test.cpu of the host's CPU count. cmd/rungate then
# records each benchmark's metrics: both sides' medians and quartiles, the
# head's wins and the pair count, and runinfo.
#
# BASE is a revision, exported with `git archive` into a temporary directory
# ($TMPDIR) that is removed on exit; the repository is not touched. BASE `AA`
# runs the working tree's binaries on both sides instead: the A/A run whose
# spread is the noise floor of an A/B run of the same pattern. The file keeps
# one run of each kind, so an A/B and an A/A run under one LABEL share it.
#
# Environment: RUNGATE_BENCHTIME (default 200x; a count, so that both sides do
# the same work — BenchmarkDecodeStep's contexts grow with every step).
# CP_WORKERS reaches the binaries as set and is recorded.
set -euo pipefail
usage="usage: scripts/rungate.sh BASE PATTERN PAIRS LABEL"
base="${1:?$usage}"
pattern="${2:?$usage}"
pairs="${3:?$usage}"
label="${4:?$usage}"
benchtime="${RUNGATE_BENCHTIME:-200x}"
cpu="$(getconf _NPROCESSORS_ONLN)"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/A" "$tmp/B" "$tmp/bin/base" "$tmp/bin/head"

IFS='|' read -r -a alts <<<"$pattern"

# The packages whose benchmark functions match an alternative's first level.
pkgs=()
while IFS= read -r dir; do
  for alt in "${alts[@]}"; do
    top="${alt%%/*}"
    if grep -hoE '^func Benchmark[A-Za-z0-9_]*' "$root/$dir"/*_test.go | sed 's/^func //' | grep -qE -- "$top"; then
      pkgs+=("$dir")
      break
    fi
  done
done < <(cd "$root" && grep -rlE --include='*_test.go' '^func Benchmark' internal cmd | xargs -n1 dirname | sort -u)
if [ "${#pkgs[@]}" -eq 0 ]; then
  echo "rungate: no package has a benchmark matching $pattern" >&2
  exit 1
fi

# The working tree's revision, marked -dirty if a tracked file differs from
# it — other than the gate's own output, so that an A/A run after an A/B run
# under one LABEL still names the revision both measured.
headrev="$(git -C "$root" rev-parse --short HEAD)"
if ! git -C "$root" diff --quiet HEAD -- . ":(exclude)BENCH_rungs_$label.json"; then
  headrev="$headrev-dirty"
fi
if [ "$base" = AA ]; then
  kind=aa baserev="$headrev" basetree="$root"
else
  kind=ab baserev="$(git -C "$root" rev-parse --short "$base")" basetree="$tmp/base"
  mkdir -p "$basetree"
  git -C "$root" archive "$base" | tar -x -C "$basetree"
fi
for pkg in "${pkgs[@]}"; do
  bin="$(echo "$pkg" | tr / _).test"
  echo "== build $pkg" >&2
  (cd "$root" && go test -c -o "$tmp/bin/head/$bin" "./$pkg")
  if [ "$kind" = ab ]; then
    (cd "$basetree" && go test -c -o "$tmp/bin/base/$bin" "./$pkg")
  else
    cp "$tmp/bin/head/$bin" "$tmp/bin/base/$bin"
  fi
done

# run SIDE OUT: every matching benchmark of every package, from the side's
# package directory (a benchmark may read testdata).
run() {
  local side="$1" out="$2" tree="$root"
  if [ "$1" = base ]; then tree="$basetree"; fi
  for pkg in "${pkgs[@]}"; do
    for alt in "${alts[@]}"; do
      (cd "$tree/$pkg" && "$tmp/bin/$side/$(echo "$pkg" | tr / _).test" -test.run '^$' \
        -test.bench "$alt" -test.benchtime "$benchtime" -test.cpu "$cpu" -test.benchmem -test.timeout 30m) >>"$out"
    done
  done
}
for i in $(seq 1 "$pairs"); do
  order="base head"
  if ((i % 2 == 0)); then order="head base"; fi
  for side in $order; do
    echo "== pair $i/$pairs: $side" >&2
    dir=A
    if [ "$side" = head ]; then dir=B; fi
    run "$side" "$tmp/$dir/pair$(printf %02d "$i").txt"
  done
done
(cd "$root" && go run ./cmd/rungate -out "$root/BENCH_rungs_$label.json" -kind "$kind" \
  -base "$baserev" -head "$headrev" -pattern "$pattern" -benchtime "$benchtime" -cpu "$cpu" \
  "$tmp/A" "$tmp/B")
echo "wrote BENCH_rungs_$label.json ($kind, $pairs pairs)" >&2
