#!/usr/bin/env bash
# Builds the serve-e2e benchmark from the checkout it sits in and runs it
# with the given arguments. Run from the repository root:
#
#	bash serve-e2e/run.sh --workload json-small --seed 1 --seconds 30 --trace 0
#	bash serve-e2e/run.sh compare a.json b.json
#
# The Go build cache, the binary and the run artifacts all live under
# .bench_build/ in the checkout; nothing is fetched over the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" ]]; then
	echo "serve-e2e: no repro module at $root (the benchmark builds the repository it sits in)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the go command writes (build cache, module cache, work
# directories, telemetry counters under the user config directory) inside
# .bench_build.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$out/bin/serve-e2e" .)
exec "$out/bin/serve-e2e" "$@"
