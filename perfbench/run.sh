#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout; every build product and input it makes stays in .bench_build/.
#
#   bash perfbench/run.sh --workload rmat-delegate --seed 0 --seconds 20 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
