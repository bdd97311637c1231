#!/usr/bin/env bash
# Builds the benchmark program and the three repository binaries it
# launches from the checkout's sources, then runs the program with the given
# arguments. Everything it builds or writes stays under .bench_build/.
#
#   bash perfbench/run.sh --workload serve-8ap-64tag --seed 1 --seconds 25 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/" ./cmd/mmtag-serve ./cmd/mmtag-router ./cmd/mmtag-bench
exec "$out/bin/perfbench" -repo "$root" -bin "$out/bin" -out "$out" "$@"
