#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is run from and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the
# workloads write stays under .bench_build/ in that root, including the
# Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
unset GOWORK
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -root "$root" "$@"
