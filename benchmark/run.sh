#!/usr/bin/env bash
# Builds the benchmark driver and the accordiond daemon from the source
# tree in the current directory, then runs the driver with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload faults --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --seed 1 --out result.json    # all four workloads
#
# Binaries, the Go build cache and span files go to .bench_build/ under
# the current directory; nothing outside it is written.
set -euo pipefail

root=$PWD
out=$root/.bench_build
if [[ ! -f $root/go.mod || ! -d $root/cmd/accordiond || ! -f $root/benchmark/go.mod ]]; then
	echo "run.sh: $root is not the repository root (need go.mod, cmd/accordiond and benchmark/go.mod)" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/benchmark" && go build -o "$out/accordionbench" .)
go build -o "$out/accordiond" ./cmd/accordiond
exec "$out/accordionbench" -dir "$out" "$@"
