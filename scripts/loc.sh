#!/bin/sh
# loc.sh — the figure every subtraction PR quotes: non-test Go lines
# (no *_test.go, nothing under testdata/) outside benchmark/, per
# package directory and in total; then the byte sizes of the two
# documents that grow with every change. It fails when DESIGN.md
# outgrows design_budget or the verify skill skill_budget: a change
# that adds to either must take as much out, or raise the budget here
# in plain sight.
set -eu

design_budget=98983
skill_budget=37683

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path '*/testdata/*' |
	while read -r f; do
		echo "$(dirname "$f") $(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total }' |
	sort -k2

over=0
for doc in DESIGN.md:$design_budget .claude/skills/verify/SKILL.md:$skill_budget; do
	file=${doc%:*} budget=${doc##*:}
	size=$(wc -c <"$file")
	printf '%7d B  %s (budget %d B)\n' "$size" "$file" "$budget"
	if [ "$size" -gt "$budget" ]; then
		echo "loc.sh: $file is $size B, over its $budget B budget" >&2
		over=1
	fi
done
exit $over
