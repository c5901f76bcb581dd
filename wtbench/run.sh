#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash wtbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
#
# The go command's cache, configuration and telemetry, and the binary,
# all stay inside the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C wtbench build -o "$build/wtbench" .
exec "$build/wtbench" "$@"
