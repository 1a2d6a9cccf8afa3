#!/usr/bin/env bash
# Builds r3bench into <checkout>/.bench_build and runs it with the given
# arguments. Everything go writes (build cache, module cache) stays inside
# the checkout; nothing is fetched from the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/r3bench" ./r3bench)
exec "$build/r3bench" -out "$here/out" "$@"
