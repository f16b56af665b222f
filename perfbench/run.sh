#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload flat-sleep0 --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build in
# the checkout. The build needs the falkon module one directory up; without
# it the script fails before printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/xdg"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg" # the go command's telemetry counters land here
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
