#!/usr/bin/env bash
# Builds the serving benchmark from the surrounding source tree and runs it:
#
#   bash servebench/run.sh --workload qa-shared --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Everything the build writes (the Go
# build cache and the binary) goes under .bench_build/ there. The build is
# offline: the benchmark module depends only on the repository module, which
# it reaches through a directory replace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
unset GOGC GOMEMLIMIT GODEBUG GOFLAGS
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/servebench" && go build -ldflags "-X main.commit=$commit" -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
