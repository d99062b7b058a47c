#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash bench/run.sh --workload serve_steady --seed 1 --seconds 8 --trace 0
#
# The Go build cache, the binary, the replay corpora and the span files
# all live in .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail
build=.bench_build
mkdir -p "$build"
abs=$(cd "$build" && pwd)
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" XDG_CONFIG_HOME="$abs/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
(cd bench && go build -o "$abs/bench" .)
exec "$abs/bench" -out "$build" "$@"
