#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given flags (--workload, --seed, --seconds, --trace). Every
# build artefact, the Go build cache included, stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$build"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
