#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload dom --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# the span files of traced runs all stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build). Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
