#!/usr/bin/env bash
# Builds livebench from the checkout's own sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash livebench/run.sh --workload burst --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, run records) stays
# under .bench_build/ in the repository root. The build needs the
# repository's module (../go.mod); without it this script fails before
# printing anything on standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build/livebench"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its settings and telemetry under the user config
# directory; point that inside the checkout too.
(cd livebench && XDG_CONFIG_HOME="$build/config" go build -o "$build/bin/livebench" .) 1>&2
exec "$build/bin/livebench" "$@"
