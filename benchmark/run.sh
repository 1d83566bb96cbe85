#!/usr/bin/env bash
# Builds cmd/spectre-server and the benchmark from the checkout's own
# source into .bench_build/ and runs the benchmark with the given
# arguments. Everything the go command writes (build cache, temporary
# files, telemetry) is pointed inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export GOENV=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
unset GOFLAGS
# With telemetry in its default "local" mode the first go command of a day
# (so: of every fresh checkout) leaves a detached child behind that outlives
# this script. Mode "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/spectre-server" ./cmd/spectre-server
go -C benchmark build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -server "$build/bin/spectre-server" "$@"
