#!/usr/bin/env bash
# pairs.sh — the pair protocol as one command: the benchmark of PARENT
# against the benchmark of this checkout, in alternating pairs.
#
#   bash scripts/pairs.sh [-n PAIRS] [-s FIRST_SEED] [-c CHANGE] [--trace 1] PARENT [workload...]
#
# PARENT (and CHANGE, if given; else the working tree) is exported with
# `git archive` into a temporary directory outside the repository, which
# is removed on exit; no clone, no worktree, no network. Both benchmark
# binaries are built once. Pair i (of PAIRS, default 10) runs both at
# seed FIRST_SEED+i (default 1), at --trace 0 and BENCHMARK.json's
# run_seconds, the parent first on odd seeds. Workloads default to all
# four.
#
# For each workload x gated metric scripts/pairsum.go prints both
# medians, the change, the parent's IQR, how many pairs read lower and
# equal, and the verdict against BENCHMARK.json's bound. With --trace 1
# every pair also runs both sides traced, and every ladder row whose
# median moved by more than twice the parent's IQR is flagged. It exits
# 1 if a metric is out of its bound or the change fails more operations;
# a run whose outputs fail the benchmark's own check stops it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs=10 first=1 change="" trace=0
while [ $# -gt 0 ]; do
	case "$1" in
	-n) pairs="$2"; shift 2 ;;
	-s) first="$2"; shift 2 ;;
	-c) change="$2"; shift 2 ;;
	--trace) trace="$2"; shift 2 ;;
	-*) echo "pairs.sh: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
if [ $# -lt 1 ]; then
	echo "usage: pairs.sh [-n PAIRS] [-s FIRST_SEED] [-c CHANGE] [--trace 1] PARENT [workload...]" >&2
	exit 2
fi
parent="$1"
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(serve-read tenants-write embed-paged label-updates)
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# export REV DIR: the tree of REV at DIR.
export_rev() {
	mkdir -p "$2"
	git -C "$root" archive "$1" | tar -x -C "$2"
}
export_rev "$parent" "$tmp/parent"
if [ -n "$change" ]; then
	export_rev "$change" "$tmp/change"
	src="$tmp/change"
else
	src="$root"
fi

export GOTOOLCHAIN=local
for side in parent change; do
	dir="$tmp/parent"
	[ "$side" = parent ] || dir="$src"
	go build -C "$dir/benchmark" -o "$tmp/$side.bin" .
done

# run SIDE SEED WORKLOAD TRACE: one run, its report lines kept under the
# seed they ran at.
run() {
	local out="$tmp/$1.t$4.txt"
	"$tmp/$1.bin" -workdir "$tmp/work" --workload "$3" --seed "$2" --seconds "$seconds" --trace "$4" >"$tmp/last.txt"
	awk -v s="$2" '/^(e2e|ops|layer) / { print s, $0 }' "$tmp/last.txt" >>"$out"
}

traces=0
[ "$trace" != 1 ] || traces="0 1"
for w in "${workloads[@]}"; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((first + i))
		order="parent change"
		[ $((seed % 2)) -eq 1 ] || order="change parent"
		for t in $traces; do
			for side in $order; do
				run "$side" "$seed" "$w" "$t"
			done
		done
		echo "pairs.sh: $w seed $seed ($order)" >&2
	done
done

args=("$root/BENCHMARK.json" "$tmp/parent.t0.txt" "$tmp/change.t0.txt")
[ "$trace" != 1 ] || args+=("$tmp/parent.t1.txt" "$tmp/change.t1.txt")
go run "$root/scripts/pairsum.go" "${args[@]}"
