#!/usr/bin/env bash
# Builds and runs the repository benchmark (see bench/README.md). Run it
# from the repository root, for example:
#
#   bash bench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#
# Every Go build artefact and temporary file stays in the build directory,
# $CARGO_TARGET_DIR or .bench_build in the checkout; the Go toolchain is
# kept offline and local.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config" "$out/cache"
out="$(cd "$out" && pwd)"
export CARGO_TARGET_DIR="$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
