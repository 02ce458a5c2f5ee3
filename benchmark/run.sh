#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash benchmark/run.sh -workload <name> ...
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory (Go's build cache and temporary files included), so
# that a checkout is all a run touches. The one exception is the durable
# workload's journal, which goes to /dev/shm when that exists (README.md,
# "Sandbox caveats"); it is removed when the run ends.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/scratch" "$build/config"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" -scratch "$build/scratch" "$@"
