#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it.
# Every file the build and the run write — Go's build cache included —
# stays under <checkout>/.bench_build and bench/out.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/bench"
go build -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
