#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash cmd/benchmark/run.sh --workload cold-campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache and temporary files, the binary,
# scratch caches and daemon state, and traces. The toolchain is pinned to
# the local one and the module proxy is off, so the build never reaches
# the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/go-build" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" PPROF_TMPDIR="$work/pprof" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The benchmark is its own module, so the root module's `go vet ./...`
# and `go test ./...` do not reach it. Vetting here type-checks its tests
# as well: a change to an API they call fails every benchmark run
# instead of going unnoticed.
go -C "$root/cmd/benchmark" vet .
go -C "$root/cmd/benchmark" build -o "$work/benchmark" .
exec "$work/benchmark" -root "$root" -work "$work" "$@"
