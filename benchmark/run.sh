#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Every file
# the toolchain writes (build and module caches, the binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/spin-benchmark" .)
exec "$out/spin-benchmark" "$@"
