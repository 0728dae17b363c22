#!/usr/bin/env bash
# Builds the benchmark and cmd/telcheck (which the traced run uses to
# validate its span document) into .bench_build/ at the repository
# root, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh -workload engine-compute -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
# The go command keeps its telemetry counters under the user config
# directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

go build -C bench -o "$out/bench" .
go build -C bench -o "$out/telcheck" wsrs/cmd/telcheck
exec "$out/bench" "$@"
