#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload backfill --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, scratch data dirs and spans.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$here/../go.mod" ] || [ ! -d "$here/../internal" ]; then
	echo "perfbench: the repository sources are missing next to $here" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
