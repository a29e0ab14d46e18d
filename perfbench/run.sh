#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload study-run --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, temp dirs and span files.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
