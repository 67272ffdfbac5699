#!/bin/sh
# ci.sh — the full verification gate, runnable locally and in CI. The
# gate is a rule, not a list: a test is gated by existing.
#
#   1. gofmt, the line cap and the DESIGN.md and verify-skill budgets
#      (scripts/loc.sh), go vet, go build (both tag states), that the
#      compiler inlines the per-predicate read path, and build and vet
#      of the benchmark module, which compiles against internal/ APIs
#   2. go test ./..., plain, under -tags invariants and under -race,
#      then the clone-isolation, tree-repack and storm
#      tests (the borrowed-answer storm among them: readers hold cached
#      answers across publishes) three more times; labelvet runs here,
#      as internal/analysis's TestRepoClean (both tag states) and
#      fixture tests, and so does its TestPanicSites; and the allocation
#      pins five more times, since a pin that rests on a sync.Pool can
#      read a pool miss after a GC
#   3. every Fuzz* target for 5 s (scripts/fuzz.sh)
#   4. every example run, bench smoke
#   5. httpd smoke, replication smoke
#   6. benchmark module (test, smoke run)
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> line cap, DESIGN.md and verify-skill budgets (scripts/loc.sh)"
sh scripts/loc.sh >/dev/null

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> the per-predicate read path and the per-symbol slot reads inline"
inlined=$(go build -gcflags=-m ./internal/keys ./internal/scheme ./internal/dyndoc ./internal/store 2>&1)
for f in 'keys/arena\.go:.* can inline \(\*Arena\)\.at$' 'keys/arena\.go:.* can inline \(\*Arena\)\.Compare$' \
	'scheme/scheme\.go:.* can inline \(\*Tree\)\.run$' 'dyndoc/dyndoc\.go:.* can inline \(\*Document\)\.version$' \
	'store/slice\.go:.* can inline \(\*slice\)\.list$'; do
	if ! echo "$inlined" | grep -Eq "$f"; then
		echo "inlining: no match for $f in go build -gcflags=-m" >&2
		exit 1
	fi
done

echo "==> benchmark module (build, vet)"
(cd benchmark && go build -o /dev/null . && go vet ./...)

echo "==> go build -tags invariants ./..."
go build -tags invariants ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -tags invariants ./..."
go test -tags invariants ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> clone isolation, tree repack, shrunk run and filler count, memo, cache, borrowed-answer, watch, request-reuse and edit-scratch storms, stored kernels, loaded-tree clones, the open and index-build pins (race, 3x)"
go test -race -count=3 -run 'TestArenaCloneIsolation|TestRepackStorm|TestShrunkRunRepacks|TestFillersCounted|TestStarQueryStorm|TestStampedCache|TestBorrowedAnswerStorm|TestMixedFormStorm|TestPlannedQueryStormRendered|TestWatchStorm|TestWatchChildStar|TestWatchRetentionStorm|TestEndWatchesWaitsForRound|TestStoredKernelsMatchBoxed|TestTimeoutOverTCP|TestTimeoutRaceOverTCP|TestLoadedCloneColdReads|TestRequestReuseStorm|TestCallReuseStorm|TestEditScratchStorm|TestOpenBytesBounded|TestSliceBuildBytes' ./...

echo "==> allocation pins and the rendered-reply storm (5x)"
go test -count=5 -run 'TestCloneAllocs|TestInsertTreeBytes|TestLeafEditAllocs|TestOpenBytesBounded|TestForkedTreeBytes|TestWorstEditBytesBounded|TestServeAllocs|TestPackedPathAllocs|TestClientCallAllocs|TestQueryDecodeAllocs|TestFirstInsertBytesBounded|TestWarmLeafEditAllocs|TestFaultAllocatesOneFrame|TestOwnerAppendBytes|TestSliceBuildBytes|TestPlannedQueryStormRendered' \
	. ./internal/dyndoc ./internal/web ./internal/containment ./internal/pagestore ./internal/scheme ./internal/store ./client

echo "==> every fuzz target, 5s each"
sh scripts/fuzz.sh 5s

echo "==> every example runs to a zero exit"
for ex in examples/*/; do
	go run "./$ex" >/dev/null || { echo "example $ex failed" >&2; exit 1; }
done

echo "==> bench smoke (-benchtime 1x, every package that defines a benchmark)"
go test -run '^$' -bench . -benchtime 1x $(grep -rl --include='*_test.go' '^func Benchmark' \
	--exclude-dir=benchmark --exclude-dir=.bench_build --exclude-dir=testdata . | xargs -n1 dirname | sort -u)

echo "==> httpd smoke (dynxmld route surface via dynxml remote + graceful shutdown)"
httpd_dir=$(mktemp -d)
httpd_bin="$httpd_dir/dynxmld"
dynxml="$httpd_dir/dynxml"
httpd_addr_file="$httpd_dir/addr"
go build -o "$httpd_bin" ./cmd/dynxmld
go build -o "$dynxml" ./cmd/dynxml
"$httpd_bin" -addr 127.0.0.1:0 -root "$httpd_dir/docs" -addr-file "$httpd_addr_file" \
	-durability interval=20ms >"$httpd_dir/log" 2>&1 &
httpd_pid=$!
httpd_fail() {
	echo "httpd smoke: $1" >&2
	cat "$httpd_dir/log" >&2 || true
	kill "$httpd_pid" 2>/dev/null || true
	exit 1
}
i=0
while [ ! -s "$httpd_addr_file" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && httpd_fail "server did not write $httpd_addr_file"
	sleep 0.1
done
httpd_url="http://$(cat "$httpd_addr_file")"
export DYNXML_ADDR="$httpd_url"
curl -sf "$httpd_url/healthz" >/dev/null || httpd_fail "healthz"
# Request ids: a client's is echoed, a missing one is minted as 16 hex
# characters, and an error envelope carries the id its header echoes.
rid() { tr -d '\r' <"$1" | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: //p'; }
curl -si -H 'X-Request-Id: ci-rid-1' "$httpd_url/healthz" >"$httpd_dir/rid1" || httpd_fail "healthz with a request id"
[ "$(rid "$httpd_dir/rid1")" = ci-rid-1 ] || httpd_fail "request id not echoed: $(cat "$httpd_dir/rid1")"
curl -si "$httpd_url/healthz" >"$httpd_dir/rid2" || httpd_fail "healthz without a request id"
rid "$httpd_dir/rid2" | grep -Eqx '[0-9a-f]{16}' || httpd_fail "minted request id is not 16 hex characters: $(cat "$httpd_dir/rid2")"
curl -si -X POST -d '{}' "$httpd_url/v1/docs/ghost/open" >"$httpd_dir/rid3" || httpd_fail "open of an unknown document"
rid3=$(rid "$httpd_dir/rid3")
grep -q "\"request_id\":\"$rid3\"" "$httpd_dir/rid3" && [ -n "$rid3" ] ||
	httpd_fail "error envelope's request_id differs from the echoed header: $(cat "$httpd_dir/rid3")"
"$dynxml" remote create ci '<root><a></a></root>' >/dev/null || httpd_fail "create"
root_id=$("$dynxml" remote query -first ci /root) || httpd_fail "query gave no root id"
edit_seq=$("$dynxml" remote insert -seq ci "$root_id" 0 x) || httpd_fail "edit"
[ "$edit_seq" -gt 0 ] || httpd_fail "edit ack carried no journal seq"
"$dynxml" remote batch ci "[{\"op\":\"insert-tree\",\"parent\":$root_id,\"pos\":0,\"fragment\":\"<x><y></y></x>\"}]" >/dev/null || httpd_fail "batch"
[ "$("$dynxml" remote count ci /root/x)" = "2" ] || httpd_fail "query after edits"
"$dynxml" remote explain ci /root/x | grep -q 'strategy' || httpd_fail "explain"
"$dynxml" remote sync ci || httpd_fail "sync"
"$dynxml" remote checkpoint ci || httpd_fail "checkpoint"
"$dynxml" remote stats ci >"$httpd_dir/stats" || httpd_fail "stats"
grep -q '"journal"' "$httpd_dir/stats" || httpd_fail "stats carry no journal: $(cat "$httpd_dir/stats")"
grep -q '"backend":"slice"' "$httpd_dir/stats" || httpd_fail "served document is not on the slice index: $(cat "$httpd_dir/stats")"
"$dynxml" remote xml ci | grep -q '<y>' || httpd_fail "xml"
"$dynxml" remote list | grep -q '"name":"ci"' || httpd_fail "list"
"$dynxml" remote horizon -min "$edit_seq" -wait 5s ci >/dev/null || httpd_fail "horizon"
# Closing a document ends its watch streams.
"$dynxml" remote watch -timeout 20s ci /root/w >"$httpd_dir/closewatch.out" 2>&1 &
closewatch_pid=$!
sleep 0.5
"$dynxml" remote close ci || httpd_fail "close"
wait "$closewatch_pid" || true
grep -q 'watch stream ended' "$httpd_dir/closewatch.out" || httpd_fail "close left a watch open: $(cat "$httpd_dir/closewatch.out")"
"$dynxml" remote open ci >/dev/null || httpd_fail "reopen after close"
[ "$("$dynxml" remote count ci /root/x)" = "2" ] || httpd_fail "replay lost an edit"
"$dynxml" remote watch -n 1 -timeout 10s ci /root/w >"$httpd_dir/watch.out" 2>&1 &
watch_pid=$!
sleep 0.5
"$dynxml" remote insert ci "$root_id" 0 w >/dev/null || httpd_fail "insert under watch"
wait "$watch_pid" || httpd_fail "watch never fired: $(cat "$httpd_dir/watch.out")"
grep -q '"added":1' "$httpd_dir/watch.out" || httpd_fail "watch notification malformed: $(cat "$httpd_dir/watch.out")"
if "$dynxml" remote open ghost >/dev/null 2>&1; then httpd_fail "unknown doc did not fail"; fi
vars_out="$httpd_dir/vars.json"
curl -sf "$httpd_url/debug/vars" >"$vars_out" || httpd_fail "debug/vars"
for key in web_requests_total web_inflight_requests web_panics_total web_timeouts_total \
	web_route_query_latency_seconds web_route_open_responses_2xx_total \
	web_route_journal_inflight web_route_watch_inflight web_route_horizon_inflight \
	catalog_opens_total catalog_replays_total catalog_open_docs catalog_resident_bytes catalog_evictions_total \
	labelstore_sync_seconds labelstore_records_total cdbs_relabel_burst_codes qed_code_len_digits \
	dyndoc_inserts_total dyndoc_snapshot_swaps_total dyndoc_reader_staleness_gens dyndoc_batch_size cdbs_batch_insert_codes \
	journal_append_seconds journal_appends_total journal_group_commits_total journal_group_commit_batches \
	journal_checkpoints_total journal_checkpoint_reclaimed_bytes_total journal_replayed_edits_total journal_oversize_refused_total \
	xpath_plan_cache_hits_total xpath_result_cache_hits_total \
	journal_ship_requests_total journal_ship_batches_total journal_ship_bytes_total journal_ship_snapshots_total \
	watch_watchers_active watch_events_total watch_notifications_total watch_coalesced_total watch_requeries_total \
	follower_lag_seqs follower_applied_total follower_resets_total follower_polls_total pagestore_read_errors_total \
	pagestore_cache_hits pagestore_cache_misses pagestore_writebacks dynxml_open_label_seconds dynxml_open_index_seconds; do
	grep -q "\"$key\"" "$vars_out" || httpd_fail "/debug/vars missing $key"
done

echo "==> replication smoke (leader + follower dynxmld, kill and catch up)"
repl_addr_file="$httpd_dir/faddr"
"$httpd_bin" -addr 127.0.0.1:0 -root "$httpd_dir/replica" -addr-file "$repl_addr_file" \
	-follow "$httpd_url" >"$httpd_dir/flog" 2>&1 &
repl_pid=$!
repl_fail() {
	echo "replication smoke: $1" >&2
	cat "$httpd_dir/flog" >&2 || true
	kill "$repl_pid" "$httpd_pid" 2>/dev/null || true
	exit 1
}
i=0
while [ ! -s "$repl_addr_file" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && repl_fail "follower did not write $repl_addr_file"
	sleep 0.1
done
repl_url="http://$(cat "$repl_addr_file")"
# Write through the leader, then the follower must serve at/after the
# acknowledged horizon (read-your-writes across the pair).
seq1=$("$dynxml" remote insert -seq ci "$root_id" 0 rep) || repl_fail "leader write"
"$dynxml" remote -addr "$repl_url" horizon -min "$seq1" -wait 10s ci >/dev/null || repl_fail "follower never reached seq $seq1"
[ "$("$dynxml" remote -addr "$repl_url" count ci /root/rep)" = "1" ] || repl_fail "leader write invisible on follower"
# Mutations on the follower are rejected read-only.
if "$dynxml" remote -addr "$repl_url" insert ci "$root_id" 0 nope >/dev/null 2>&1; then
	repl_fail "follower accepted a write"
fi
# SIGKILL the follower mid-life; its mirror must let a restart catch up.
kill -KILL "$repl_pid"
wait "$repl_pid" 2>/dev/null || true
seq2=$("$dynxml" remote insert -seq ci "$root_id" 0 rep) || repl_fail "leader write while follower dead"
# A checkpoint meanwhile puts the follower's position below the leader's
# checkpoint base, so its catch-up must adopt a snapshot.
"$dynxml" remote checkpoint ci || repl_fail "leader checkpoint while follower dead"
: >"$repl_addr_file"
"$httpd_bin" -addr 127.0.0.1:0 -root "$httpd_dir/replica" -addr-file "$repl_addr_file" \
	-follow "$httpd_url" >>"$httpd_dir/flog" 2>&1 &
repl_pid=$!
i=0
while [ ! -s "$repl_addr_file" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && repl_fail "restarted follower did not write $repl_addr_file"
	sleep 0.1
done
repl_url="http://$(cat "$repl_addr_file")"
"$dynxml" remote -addr "$repl_url" horizon -min "$seq2" -wait 10s ci >/dev/null || repl_fail "restarted follower never caught up to seq $seq2"
[ "$("$dynxml" remote -addr "$repl_url" count ci /root/rep)" = "2" ] || repl_fail "catch-up lost a write"
"$dynxml" remote -addr "$repl_url" stats ci | grep -q '"resets":1[,}]' || repl_fail "catch-up did not adopt the leader's snapshot"
# A ship chunk is a segment stream: it opens with the segment header.
[ "$(curl -sf "$httpd_url/v1/docs/ci/journal?from=scratch" | head -c 7)" = "LBLSTOR" ] || repl_fail "ship chunk is not a segment stream"
kill -TERM "$repl_pid"
repl_status=0
wait "$repl_pid" || repl_status=$?
[ "$repl_status" = "0" ] || repl_fail "follower SIGTERM exit status $repl_status, want 0"

# An open watch stream must not hold up the shutdown drain.
"$dynxml" remote watch -timeout 60s ci /root/w >"$httpd_dir/termwatch.out" 2>&1 &
termwatch_pid=$!
sleep 0.5
term_start=$(date +%s)
kill -TERM "$httpd_pid"
httpd_status=0
wait "$httpd_pid" || httpd_status=$?
term_secs=$(($(date +%s) - term_start))
[ "$httpd_status" = "0" ] || httpd_fail "SIGTERM exit status $httpd_status, want 0"
[ "$term_secs" -le 5 ] || httpd_fail "SIGTERM with a watch open took ${term_secs}s, want at most 5"
wait "$termwatch_pid" || true
grep -q 'watch stream ended' "$httpd_dir/termwatch.out" || httpd_fail "shutdown left a watch open: $(cat "$httpd_dir/termwatch.out")"
rm -rf "$httpd_dir"

echo "==> benchmark module (test, smoke run with the layer ladder)"
(cd benchmark && go test ./...)
bash benchmark/run.sh --smoke --trace 1 >/dev/null

echo "CI gate passed."
