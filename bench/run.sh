#!/usr/bin/env bash
# The benchmark's command: builds the benchmark program from source and
# runs it with the given arguments. Everything it writes, the Go build
# cache included, stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o ../.bench_build/bin/bench .
exec .bench_build/bin/bench "$@"
