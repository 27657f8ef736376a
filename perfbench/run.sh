#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload bulk-long --seed 1 --seconds 26 --trace 0
# Build outputs, the Go build cache and run scratch files stay in
# .bench_build/ under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
