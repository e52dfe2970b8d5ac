#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash xpbench/run.sh --workload serve_unique --seed 1 --seconds 25 --trace 0
# Run from the repository root. The build cache, the binary, scratch
# files and traces all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
# Build output goes to stderr: the last line of stdout is the result.
go -C "$root/xpbench" build -o "$out/xpbench" . 1>&2
exec "$out/xpbench" --out "$out" "$@"
