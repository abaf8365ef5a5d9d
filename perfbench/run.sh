#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload rpc_mix --seed 1 --seconds 35 --trace 0
#
# The Go build cache, the binary and the traced runs' spans and CPU
# profiles all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out/perfbench-out" "$@"
