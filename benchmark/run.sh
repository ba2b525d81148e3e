#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the
# arguments given. Everything go writes (build cache, binary, WAL
# files, spans.json) stays under .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/adapt-benchmark" ./benchmark
exec "$build/adapt-benchmark" -dir "$build" "$@"
