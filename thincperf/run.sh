#!/usr/bin/env bash
# Builds the THINC benchmark from source and runs it. Run from the
# repository root:
#
#   bash thincperf/run.sh --workload web|av|fleet --seed N --seconds S --trace 0|1
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory, so the run reads and writes nothing outside it.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The benchmark module imports the repository's packages through a
# replace directive pointing at the parent directory; without the
# repository around it the build fails and no result is printed.
(cd "$root/thincperf" && go build -o "$out/thincperf" .)

exec "$out/thincperf" "$@"
