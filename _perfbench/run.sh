#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of a checkout of the repository:
#
#   bash _perfbench/run.sh --workload figures --seed 11 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
# The benchmark asks git for the revision when it runs, so the build
# neither needs git nor a checkout that is a repository.
export GOFLAGS="-mod=mod -buildvcs=false"

(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
