#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in and
# runs it; every argument goes to the benchmark (see bench/README.md):
#
#   bash bench/run.sh --workload point-mem --seed 1 --seconds 20 --trace 0
#
# Everything it writes — Go's build cache included — stays under .bench_build
# in the working directory, which must be the repository root. Outside a
# complete checkout the build fails and the exit code is non-zero.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
