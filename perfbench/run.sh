#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash perfbench/run.sh --workload sweep-tage --seed 1 --seconds 40 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# working directory, and nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The program looks up its git revision for provenance; keep git from
# searching above the working directory.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
