#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root:
#
#   bash cloudbench/run.sh --workload month-replay --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced runs' span logs stay
# under .bench_build/cloudbench in the current directory; nothing is
# fetched over the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/cloudbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/cloudbench" && go build -o "$out/cloudbench" .)
exec "$out/cloudbench" --spans "$out" "$@"
