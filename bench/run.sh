#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sampled --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build in the current directory, so the run
# touches nothing outside the checkout. Without the repository's own go.mod
# next to bench/ the build fails and the script exits non-zero.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd bench && go build -o "$build/detobj-bench" .)
exec "$build/detobj-bench" "$@"
