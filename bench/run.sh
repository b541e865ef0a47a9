#!/usr/bin/env bash
# Builds the benchmark and the prefetchd server from this checkout's
# sources, then runs the benchmark with the arguments given, e.g.
#
#   bash bench/run.sh --workload fig6 --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The build cache, the binaries
# and everything a run writes stay under .bench_build/ there.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
for src in go.mod cmd/prefetchd bench/go.mod; do
	if [ ! -e "$src" ]; then
		echo "bench/run.sh: $root/$src is missing; run this from a checkout of the repository" >&2
		exit 1
	fi
done
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

# Unless its telemetry mode is off, the go command starts a detached
# telemetry process that can outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/prefetchd" ./cmd/prefetchd
go -C bench build -o "$out/bin/prefetchbench" ./prefetchbench
exec "$out/bin/prefetchbench" -work "$out" "$@"
