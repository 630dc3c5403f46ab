#!/usr/bin/env bash
# Builds the serve-level benchmark from the source tree it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 8 --trace 0
#
# Build products, the Go build cache and every file a run writes stay under
# .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=""
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export GOPATH="$out/gopath"

# HOME and XDG_CONFIG_HOME point into the build directory only for the
# toolchain, which keeps its own state (such as telemetry) there.
HOME="$out/home" XDG_CONFIG_HOME="$out/config" go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
