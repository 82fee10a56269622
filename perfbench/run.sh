#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build writes (compiled binary, Go build
# cache, temporary files) stays under .bench_build at the checkout root,
# so the run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
