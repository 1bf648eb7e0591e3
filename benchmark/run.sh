#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload engine-spill --seed 1 --seconds 20 --trace 0
#
# This is the command BENCHMARK.json names. The binary, the Go build cache and
# everything a run writes stay under .bench_build/ in the checkout; in a
# directory without the repository's sources the build fails and so does this.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
commit="$(git rev-parse HEAD 2>/dev/null || true)"
env GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/go-config" \
	GOTOOLCHAIN=local GOFLAGS= \
	go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
