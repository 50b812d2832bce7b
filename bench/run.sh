#!/usr/bin/env bash
# Builds the harness from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload edge_miss --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, the binary,
# the WAL directories — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" -workdir "$out/work" "$@"
