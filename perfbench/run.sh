#!/usr/bin/env bash
# Builds monitord and the benchmark from the checkout this script lives
# in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build and temporary directories and run scratch
# stay under .bench_build/ at the checkout root. Outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/monitord" cpsmon/cmd/monitord) >&2
cd "$root"
exec "$out/perfbench" -monitord "$out/monitord" -workdir "$out/run-$$" "$@"
