#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it; the
# command BENCHMARK.json names. Everything the Go toolchain writes (build
# cache, telemetry, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/xdg"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOPATH="${GOPATH:-$build/gopath}"
export XDG_CONFIG_HOME="$build/xdg" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/etlbench" ./benchmark
exec "$build/etlbench" "$@"
