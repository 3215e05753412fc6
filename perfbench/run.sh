#!/usr/bin/env bash
# Builds hosserve and the perfbench binary from this checkout into
# .bench_build/ (Go build cache included, so nothing is written outside
# the checkout), then runs one workload:
#
#   bash perfbench/run.sh --workload query-rows --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything after the script name is
# passed to perfbench; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

cd "$root/perfbench"
go build -buildvcs=false -o "$out/hosserve" repro/cmd/hosserve
go build -buildvcs=false -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -hosserve "$out/hosserve" -workdir "$out/run" "$@"
