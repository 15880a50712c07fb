#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload table4 --seed 42 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, spans) stays under
# .bench_build/ in the current directory, so the run touches nothing
# outside the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
