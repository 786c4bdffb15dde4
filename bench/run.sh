#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload paper-1s --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files and the binary live in .bench_build/
# at the repository root, so the benchmark writes nothing outside the
# checkout. The first build compiles the standard library into that
# cache; later builds reuse it. No module is downloaded: the benchmark
# needs only the standard library and the repository itself.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build_dir=$(dirname "$bench_dir")/.bench_build
mkdir -p "$build_dir/tmp"

export GOCACHE="$build_dir/gocache"
export GOMODCACHE="$build_dir/gomod"
export GOTMPDIR="$build_dir/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$bench_dir" && go build -buildvcs=false -o "$build_dir/bench" .)
exec "$build_dir/bench" "$@"
