#!/usr/bin/env bash
# Builds ksjqd and the benchmark from this source tree, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-analytic --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binaries, data
# directories, trace files) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/cmd/ksjqd/main.go" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (cmd/ksjqd and perfbench/ not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/ksjqd" ./cmd/ksjqd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -ksjqd "$build/bin/ksjqd" -work "$build/run" "$@"
