#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and runs
# it with the arguments given. Everything the Go toolchain writes (build
# cache, module cache, temporaries) stays under .bench_build/, so a run reads
# and writes only inside its checkout. In a directory without the engine
# sources (no ../go.mod for the replace directive) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
