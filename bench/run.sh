#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; BENCHMARK.json names
# this script as the benchmark's command. Nothing is read or written outside
# the checkout: the Go build cache and the binary live in .bench_build/, the
# reports, span files and temporary job stores in bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C bench -o "$build/cellmg-bench" .
exec "$build/cellmg-bench" -spec BENCHMARK.json -out bench/out "$@"
