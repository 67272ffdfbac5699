#!/bin/sh
# fuzz.sh [fuzztime] — runs every Fuzz* target of the module for
# fuzztime (default 5s), discovered with go test -list. Without
# -fuzzminimizetime the engine can spend a whole short run minimising
# one 4 KB input.
set -eu

cd "$(dirname "$0")/.."

go test -list '^Fuzz' ./... |
	awk '/^Fuzz/ { names[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, names[i]; n = 0 }' |
	while read -r pkg name; do
		echo "==> $name ($pkg)"
		go test -run '^$' -fuzz "^$name\$" -fuzztime "${1:-5s}" -fuzzminimizetime 1s "$pkg"
	done
