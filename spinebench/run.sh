#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash spinebench/run.sh --workload fig4_fct --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, run records, temporary
# stores) goes under $CARGO_TARGET_DIR, default .bench_build at the root of
# the checkout. It refuses to run outside a checkout of the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/netsim" ]]; then
	echo "spinebench: $root is not a spineless checkout (no go.mod or internal/netsim)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

go -C "$here" build -o "$out/bin/spinebench" .
cd "$root"
exec "$out/bin/spinebench" --state "$out/spinebench" --golden "$here/golden.json" "$@"
