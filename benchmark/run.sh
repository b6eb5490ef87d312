#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# keeping every file it writes (build cache, binary, temporary data
# directories, span files) under .bench_build/ in the checkout.
#
#   bash benchmark/run.sh --workload hot_statements --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal/engine ]; then
	echo "benchmark/run.sh: the program's source (go.mod, internal/) is not in $PWD" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# The go command otherwise starts a detached telemetry child that outlives it.
echo off >"$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$out/udfbench" ./benchmark
TMPDIR="$out/tmp" exec "$out/udfbench" "$@"
