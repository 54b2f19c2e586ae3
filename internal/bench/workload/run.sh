#!/usr/bin/env bash
# Builds the workload benchmark from the checkout's sources and runs it.
#
#   bash internal/bench/workload/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, and the scratch
# directories the serve-closed workload journals into. The last line of
# standard output is the JSON result; see doc.go for the metrics.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go telemetry off
(cd "$here" && go build -o "$out/workloadbench" .)
exec "$out/workloadbench" "$@"
