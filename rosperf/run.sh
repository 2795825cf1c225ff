#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root: bash rosperf/run.sh --workload rosd-hot ...
# The build and its Go cache live under .bench_build/ in the working
# directory, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd rosperf && go build -o "$root/.bench_build/rosperf/rosperf" .)
exec "$root/.bench_build/rosperf/rosperf" "$@"
