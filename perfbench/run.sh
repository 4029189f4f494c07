#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload line_rate --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the toolchain's
# config and telemetry files, the binary and the run's snapshot files all
# live under .bench_build/ in the current directory; nothing is fetched
# (the module is stdlib-only).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
