#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it, e.g.
#
#   bash perfbench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
