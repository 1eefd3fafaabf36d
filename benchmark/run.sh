#!/usr/bin/env bash
# The benchmark contract's command: build the benchmark from source inside
# the checkout, then run it with the driver's flags
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the Go toolchain writes stays under .bench_build in the
# checkout: build cache, module cache, toolchain telemetry and the binary.
# Run it from the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local
XDG_CONFIG_HOME="$build/config" go build -o "$build/relbench" ./benchmark
exec "$build/relbench" "$@"
