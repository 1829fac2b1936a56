#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every file the build and the run write
# (Go build cache, temp dirs, WAL directories, trace dumps) stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export TMPDIR="$out/tmp"
exec "$out/perfbench" "$@"
