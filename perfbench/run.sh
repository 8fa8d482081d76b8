#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload table1_dense --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# everything the benchmark writes stay under .bench_build/ there.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOPROXY=off GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
