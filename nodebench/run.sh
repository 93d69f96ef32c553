#!/usr/bin/env bash
# Builds the node benchmark from this checkout's source and runs it.
# Run from the repository root; every argument goes to the benchmark:
#
#   bash nodebench/run.sh --workload zipf-day --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and every result file stay under
# .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/nodebench" .)
exec "$build/nodebench" "$@"
