#!/usr/bin/env bash
# Builds the STMaker benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash bench/run.sh --workload commute --seed 51 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$build/stmaker-bench" .
exec "$build/stmaker-bench" "$@"
