#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-spec --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build in the current directory, and the toolchain never goes to
# the network: the module has no dependencies outside the repository.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
export PERFBENCH_WORK="$build"
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
