#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# flags given. Everything the Go toolchain writes — build cache, temporary
# files, its own configuration and telemetry — is kept under .bench_build/
# at the root of the checkout, so a run reads and writes nothing outside it;
# the benchmark itself keeps its scratch files under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(dirname "$PWD")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
