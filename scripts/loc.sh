#!/bin/sh
# loc.sh — the figure every subtraction PR quotes: non-test Go lines
# (no *_test.go, nothing under testdata/) outside benchmark/, per
# package directory and in total; then the byte sizes of the two
# documents that grow with every change. It fails when DESIGN.md
# outgrows design_budget: a change that adds to it must take as much
# out, or raise the budget here in plain sight.
set -eu

design_budget=99689

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path '*/testdata/*' |
	while read -r f; do
		echo "$(dirname "$f") $(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total }' |
	sort -k2

design=$(wc -c <DESIGN.md)
printf '%7d B  DESIGN.md (budget %d B)\n' "$design" "$design_budget"
printf '%7d B  .claude/skills/verify/SKILL.md\n' "$(wc -c <.claude/skills/verify/SKILL.md)"
if [ "$design" -gt "$design_budget" ]; then
	echo "loc.sh: DESIGN.md is $design B, over its $design_budget B budget" >&2
	exit 1
fi
