#!/usr/bin/env bash
# repeat.sh [first_seed] [runs] — the repeatability check of the
# benchmark contract, on this tree: two sets of runs of the same code,
# each set running every workload with tracing off under `runs` seeds
# (default 10) starting at first_seed (default 1). Per workload x
# end-to-end metric it prints each set's median and the distance
# between its first and third quartile as a share of that median
# (statistics.quantiles(values, n=4), as the driver takes them), by how
# much the second median is worse than the first, and the bound. The
# caller-observed times, which carry no bound, are listed the same way
# below them.
#
# It exits non-zero where the driver would refuse the benchmark: when an
# operation failed, when a spread other than that of setup_s exceeds
# its bound, or when a second median is worse than the first by more
# than the bound. With runs = 1 there is no spread: the two runs of each
# workload are compared with each other.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
first="${1:-1}"
runs="${2:-10}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
mkdir -p "$here/../.bench_build"
out="$(mktemp -d "$here/../.bench_build/repeat.XXXXXX")"

for set in 1 2; do
	for w in serve-read tenants-write embed-paged label-updates; do
		for ((i = 0; i < runs; i++)); do
			seed=$((first + i))
			bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w.$set.$seed.txt"
			grep -E '^(e2e|ops|layer [a-z-]+ client\.(ops_per_s|(read|write)_p(50|99)_us)) ' "$out/$w.$set.$seed.txt" >>"$out/set$set.txt"
			echo "set $set: ran $w seed $seed" >&2
		done
	done
done

python3 - "$out/set1.txt" "$out/set2.txt" <<'EOF'
import statistics, sys

# e2e lines are:   e2e workload metric value unit better bound ...
# layer lines are: layer workload metric value unit ...
# ops lines are:   ops workload ops_attempted N ops_failed M
sets, failed, info = [], 0, {}
for path in sys.argv[1:]:
    values = {}
    for line in open(path):
        f = line.split()
        if f[0] == "ops":
            failed += int(f[5])
            continue
        key = (f[1], f[2])
        values.setdefault(key, []).append(float(f[3]))
        if f[0] == "e2e":
            info[key] = (f[5], float(f[6]))
        else:
            info[key] = ("higher" if f[4] == "1/s" else "lower", None)
    sets.append(values)

def spread(vs):
    if len(vs) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    return (q3 - q1) / q2

def cell(vs):
    return f"{100 * spread(vs):7.2f}%" if len(vs) > 1 else "     n/a"

bad = failed > 0
print(f"{'workload':14} {'metric':21} {'median 1':>11} {'iqr/med':>8} {'median 2':>11} {'iqr/med':>8} {'worse by':>9} {'bound':>6}  verdict")
for bounded in (True, False):
    for key, (better, bound) in info.items():
        if (bound is not None) != bounded:
            continue
        a, b = sets[0][key], sets[1][key]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        spreads = [s for s in (spread(a), spread(b)) if s is not None]
        if bound is None:
            verdict, limit = "no bound", "  none"
        else:
            verdict, limit = "steady", f"{100 * bound:5.0f}%"
            if any(s > bound / 3 for s in spreads):
                verdict = "above a third of the bound"
            if any(s > bound for s in spreads):
                verdict = "spread above the bound (setup_s: the driver lets it pass)"
            if worse > bound or key[1] != "setup_s" and any(s > bound for s in spreads):
                verdict, bad = "OUT OF BOUND", True
        print(f"{key[0]:14} {key[1]:21} {ma:11.6g} {cell(a)} {mb:11.6g} {cell(b)} {100 * worse:8.2f}% {limit}  {verdict}")
if failed:
    print(f"{failed} operations failed")
sys.exit(1 if bad else 0)
EOF
