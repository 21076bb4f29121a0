#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to the benchmark:
#
#   bash perfledger/run.sh --workload attack-grid --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own state stay under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export HOME=$out/home XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfledger" && go build -o "$out/perfledger" .)
exec "$out/perfledger" "$@"
