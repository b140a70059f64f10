#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Run from the repository root:
#
#   bash _ecgbench/run.sh --workload form --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/ in the current directory, so a run reads and writes only
# inside the checkout. The build fails, and the script exits non-zero
# without printing a result, when the repository's sources are missing.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
out_dir="$PWD/.bench_build"
mkdir -p "$out_dir"

export GOCACHE="$out_dir/gocache"
export GOPATH="$out_dir/gopath"
export XDG_CONFIG_HOME="$out_dir/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

go -C "$bench_dir" build -o "$out_dir/ecgbench" .
exec "$out_dir/ecgbench" "$@"
