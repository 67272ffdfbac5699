#!/bin/sh
# loc.sh — the figure every subtraction PR quotes: non-test Go lines
# (no *_test.go, nothing under testdata/) outside benchmark/, per
# package directory and in total; then the byte sizes of the two
# documents that grow with every change. It fails when the total
# exceeds line_cap, DESIGN.md outgrows design_budget or the verify skill
# skill_budget: a change that adds to any of them must take as much
# out, or raise the limit here in plain sight.
set -eu

# 25 000 less the 725 lines internal/analysis gave back when the
# lockheld, lockorder and panicaudit analyzers went.
line_cap=24084
design_budget=98168
skill_budget=37540

cd "$(dirname "$0")/.."

counts=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path '*/testdata/*' |
	while read -r f; do
		echo "$(dirname "$f") $(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2; total += $2 }
		END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", total }' |
	sort -k2)
echo "$counts"

over=0
total=$(echo "$counts" | awk '$2 == "total" { print $1 }')
if [ "$total" -gt "$line_cap" ]; then
	echo "loc.sh: $total non-test lines, over the $line_cap line cap" >&2
	over=1
fi
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
