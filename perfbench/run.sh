#!/usr/bin/env bash
# Builds the BotMeter daemons and the benchmark from this checkout's source,
# then runs one benchmark workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload wire-hit --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

# With telemetry on (the default mode is "local"), each go command may fork a
# telemetry child that outlives it. Turn it off for this private config dir.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"

go build -o "$out/bin/" ./cmd/resolver ./cmd/vantage
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
