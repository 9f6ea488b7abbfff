#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root:
#   bash perfbench/run.sh --workload standard-inproc --seed 1 --seconds 20 --trace 0
# The Go build cache, the go command's configuration and telemetry,
# temporary files and the binary stay under .bench_build in the current
# directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
