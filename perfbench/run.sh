#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload repro-full --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the run artifacts stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be here)" >&2
    exit 2
fi

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
    HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
    GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
