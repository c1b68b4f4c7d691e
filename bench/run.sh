#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh                                  every workload, untraced then traced
#   bash bench/run.sh --workload xproc_ops --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache) stays inside the
# checkout, under .bench_build/. Without the gupcxx module around it (a
# directory holding only BENCHMARK.json and bench/) the build fails and
# this script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/gupcxx-bench" . >&2
exec "$build/gupcxx-bench" "$@"
