#!/usr/bin/env bash
# Builds the benchmark and the ckprivacyd daemon from this source tree and
# runs one workload; run from the repository root:
#
#   bash perfbench/run.sh --workload audit --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory. Build output goes to standard error; the result line
# is the last line of standard output.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/ckprivacyd" ckprivacy/cmd/ckprivacyd
) >&2

exec "$build/bin/perfbench" -daemon "$build/bin/ckprivacyd" -workdir "$build/run" "$@"
