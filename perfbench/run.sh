#!/usr/bin/env bash
# Builds the benchmark and the sweepd daemon from the checkout it is run in,
# then runs one workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload events --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes goes under $CARGO_TARGET_DIR (default
# .bench_build), including the Go build cache.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # go env file and telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C perfbench -o "$build/bin/perfbench" .
go build -o "$build/bin/sweepd" ./cmd/sweepd
exec "$build/bin/perfbench" -root "$root" -build "$build" -sweepd "$build/bin/sweepd" "$@"
