#!/usr/bin/env bash
# Builds the layer-ledger benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash ledger/run.sh --workload e12-vms8 --seed 1 --seconds 10 --trace 0
#
# Every build artifact (the Go build cache and the binary) stays under
# .bench_build/ in the repository root; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/ledger" && go build -o "$out/ledger" .)
exec "$out/ledger" "$@"
