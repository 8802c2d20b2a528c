#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload noise-merge --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artifact, Go cache and span
# file stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build) inside the checkout. The script execs the benchmark, so
# no process of its own outlives the run.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/out"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
