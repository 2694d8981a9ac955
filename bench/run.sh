#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash bench/run.sh --workload paper-read --seed 1 --seconds 15 --trace 0
#
# Builds bench/mhload (which in turn builds cmd/mhserve) and execs it.
# Every build product, cache and scratch file stays under .bench_build
# in the current directory, so a run touches nothing outside the
# checkout. Without the rest of the repository the build fails and the
# script exits non-zero before printing anything on stdout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false CGO_ENABLED=0

go -C bench build -o "$build/mhload" ./mhload >&2
exec "$build/mhload" -root "$root" -work "$build" "$@"
