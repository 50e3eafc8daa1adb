#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from
# (the repository root) and runs it with the given arguments:
#
#   bash caslockbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every file the build or the run writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	XDG_CACHE_HOME="$build/home" GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
go -C caslockbench build -o "$build/caslockbench" .
exec "$build/caslockbench" "$@"
