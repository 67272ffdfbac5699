#!/bin/sh
# loc.sh — the figure every subtraction PR quotes: non-test Go lines
# (no *_test.go, nothing under testdata/) outside benchmark/, per
# package directory and in total.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path '*/testdata/*' |
	while read -r f; do
		echo "$(dirname "$f") $(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total }' |
	sort -k2
