#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash bench/run.sh --workload rpc-serial --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare results-a results-b
#
# Every build artifact (Go build cache, binary) and every result file stays
# under .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/bench" && go build -o "$build/lateral-bench" .)
cd "$root"
exec "$build/lateral-bench" "$@"
