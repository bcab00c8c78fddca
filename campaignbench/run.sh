#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash campaignbench/run.sh --workload update-repeat --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the binary
# and the traced run's span files.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f campaignbench/go.mod ]]; then
	echo "campaignbench: run from the repository root; the detector's sources are not here" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/campaignbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/spans"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/home/gomod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache" \
	GOENV=off GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local

(cd campaignbench && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" --spans-dir "$out/spans" "$@"
