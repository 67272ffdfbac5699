#!/usr/bin/env bash
# run.sh — the benchmark's one command (see BENCHMARK.json):
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# It builds the benchmark from source into .bench_build/ at the root of
# the checkout and runs it there. Go's build cache, module cache and
# configuration directory (where the toolchain keeps its telemetry
# counters) are pointed into .bench_build/ too, so that nothing is read
# or written outside the checkout. Journals and page files go under
# .bench_build/work and are removed after each run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $root is not the repository: no go.mod beside benchmark/" >&2
	exit 3
fi

mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/benchmark" .

exec "$root/.bench_build/benchmark" -workdir "$root/.bench_build/work" "$@"
