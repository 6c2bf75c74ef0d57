#!/usr/bin/env bash
# Builds bench/amsload from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload ingest-direct --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write (Go build cache, the binary,
# node data, span files) stays under .bench_build in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C bench -o "$out/amsload" ./amsload >&2
exec "$out/amsload" "$@"
