#!/bin/sh
# ci.sh — the full verification gate, runnable locally and in CI.
#
# Stages, in dependency order:
#   1. gofmt         — formatting drift fails fast
#   2. go vet        — the stock vet checks
#   3. go build      — both tag states (the invariants tag swaps files in)
#   4. go test       — the whole module, plus the invariants-tagged label
#                      packages (bitstr, cdbs, and keys + containment,
#                      whose every arena read goes through the checked
#                      bitstr.View) and page store (whose tag makes the
#                      pager run checkPage on every frame it writes
#                      back or copies on write)
#   5. go test -race — the packed label arena (keys, containment) and
#                      its clone-isolation and label-length-limit tests
#                      by name, the concurrent document layer, the journal's
#                      segment files and group-commit pipeline, the
#                      HTTP serving stack (web + catalog + client), plus
#                      the snapshot storm, planned-query storm,
#                      snapshot-isolation histories, XML differential,
#                      hook-install race, close-drain, journal stress,
#                      watch storm, follower replication, in-place page
#                      mutation vs clone readers, concurrent cold clone
#                      reads and two-clones-both-compact tests by name,
#                      then the page-frame allocation pins (a warm edit
#                      allocates nothing, a fault one frame) and the
#                      read-path allocation pins (a result-hit reply
#                      allocates nothing per id, the client decodes it
#                      into its body and one exact []int, Count on a
#                      hit allocates nothing), then the index pins (a
#                      slice Add or Remove touches one name's list,
#                      the all-elements memo of either backend is
#                      filled by concurrent readers under the race
#                      detector, a snapshot edit allocates 26 B per
#                      id, the paged index is one tree and a paged
#                      insert faults no page of another name), then
#                      the read-set stamps (the cached-answer
#                      differential over all 13 schemes and the
#                      shared-cache lineages under the race detector,
#                      a hit allocates the caller's copy and nothing
#                      else, the sibling and parent axes no map), then
#                      the label kernels (the stored-form kernels
#                      byte-equal to the boxed ones under the race
#                      detector and under the invariants tag, whose
#                      assertions read back what was written; their fuzz
#                      target for 5 s; one-pass NewTree equal to the
#                      map-built one; a refused insert claims nothing;
#                      an insert allocates no code, an open 160 B a node)
#   6. crash safety  — the segment recovery/fault-injection suite by name
#                      (internal/journal, internal/faultfs), the
#                      journal kill matrix, the paged-label damage
#                      matrix (page files deleted/truncated/corrupted
#                      between runs), the torn-page-file sweep, the
#                      follower kill matrix (kills inside the first
#                      open included), then the FuzzReadAll,
#                      FuzzPageRoundTrip, FuzzMetaDecode,
#                      FuzzPageValidate, FuzzEncodeBetween,
#                      FuzzEditCodec, FuzzStreamDecode and
#                      FuzzQueryReplyDecode seed corpora as short fuzz
#                      runs
#   7. labelvet      — the repo's own static-analysis suite (label invariants,
#                      lock hygiene, dropped errors, panic allowlist), then
#                      the concurrency/durability tier (guardedby, atomicmix,
#                      ackorder, lockorder) explicitly in both tag states and
#                      a fixture-coverage check over `labelvet -list`
#   8. bench smoke   — the label-kernel packages' benchmarks once
#                      (-benchtime 1x), so they cannot rot; measuring is
#                      benchmark/'s job (stage 12)
#   9. metrics smoke — experiments binary dumps a -metrics-json snapshot and
#                      the labelstore_* (segment)/cdbs/qed/dyndoc/journal-
#                      ship/watch/follower keys must be present
#  10. httpd smoke    — dynxmld starts on a random port, the whole route
#                      surface is driven through dynxmlctl (the typed
#                      /v1 client: open, query, explain, edit, batch,
#                      sync, checkpoint, stats, xml, list, close,
#                      reopen, horizon, watch), /debug/vars must carry
#                      the web_* and catalog_* families, and SIGTERM
#                      must stop the server cleanly (exit 0)
#  11. replication smoke — a second dynxmld boots with -follow against
#                      the first, serves a leader write at the ack'd
#                      horizon, rejects writes with 403 read_only,
#                      survives SIGKILL and catches up after restart
#  12. benchmark module — benchmark/ is a module of its own that root
#                      `go build ./... && go test ./...` does not see:
#                      build, vet and test it, then run every workload
#                      once at smoke size with the layer ladder, so an
#                      internal/ API change that breaks the instrument
#                      fails here
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go build -tags invariants ./..."
go build -tags invariants ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -tags invariants ./internal/bitstr/... ./internal/cdbs/... ./internal/keys/... ./internal/containment/... ./internal/pagestore/..."
go test -tags invariants ./internal/bitstr/... ./internal/cdbs/... ./internal/keys/... ./internal/containment/... ./internal/pagestore/...

echo "==> go test -race ./internal/cow/... ./internal/keys/... ./internal/containment/... ./internal/pagestore/... ./internal/store/... ./internal/dyndoc/... ./internal/journal/... ./internal/faultfs/... ./internal/catalog/... ./internal/web/... ./client/..."
go test -race ./internal/cow/... ./internal/keys/... ./internal/containment/... ./internal/pagestore/... ./internal/store/... ./internal/dyndoc/... ./internal/journal/... ./internal/faultfs/... ./internal/catalog/... ./internal/web/... ./client/...

echo "==> packed label arena: clone isolation and the label-length limit under the race detector"
go test -race -count=3 -run 'TestArenaCloneIsolation' ./internal/containment
go test -race -count=1 -run 'TestPagedLabelLimit' .
go test -race -count=1 -run 'TestLabelTooLong' ./internal/web
go test -race -count=1 -run 'TestPagedOverlongLabel' ./internal/store

echo "==> snapshot + planned-query storms under the race detector"
go test -race -count=1 -run 'TestSnapshotStorm|TestQueryDoesNotBlockOnWriter|TestPlannedQueryStorm|TestSetCommitHookInstallRace|TestSnapshotIsolation|TestXMLMatchesEditedTree|TestDocumentClone' ./internal/dyndoc
go test -race -count=1 -run 'TestParallelPartitionedJoins|TestCacheGenerations|TestCacheRendered' ./internal/xpath/plan

echo "==> in-place page mutation vs clone readers under the race detector"
go test -race -count=1 -run 'TestInPlaceVsCloneRace|TestCloneConcurrentColdReads' ./internal/pagestore
go test -race -count=1 -run 'TestPagedClonesBothCompact' ./internal/store

echo "==> page-frame allocation pins (a warm edit allocates nothing, a fault one frame)"
go test -count=1 -run 'TestWarmLeafEditAllocs|TestFaultAllocatesOneFrame|TestPageReclaimsDeadSpace' ./internal/pagestore
go test -count=1 -run 'TestPagedAddAllocs' ./internal/store
go test -count=1 -run 'TestPagedInsertAllocs' .

echo "==> read-path allocation pins (a result-hit reply allocates nothing per id, the client one body and one []int, Count nothing)"
go test -count=1 -run 'TestQueryHitAllocBytes' ./internal/web
go test -count=1 -run 'TestQueryDecodeAllocs' ./client
go test -count=1 -run 'TestCountHitAllocs' .

echo "==> index pins (an edit touches one name's list or key range, the all-elements memo of both backends under the race detector, a snapshot edit copies 26 B per id)"
go test -count=1 -run 'TestSliceAddCost' ./internal/store
go test -race -count=3 -run 'TestStarQueryStorm' ./internal/dyndoc
go test -count=1 -run 'TestEditBytesBounded' ./internal/dyndoc
go test -count=1 -run 'TestPagedOneTree' .

echo "==> read-set stamps (an answer outlives every edit that cannot change it: differential and shared lineages under the race detector, hit and edit allocation pins)"
go test -race -count=3 -run 'TestStampedCacheDifferential|TestStampedCacheSharedLineages' ./internal/dyndoc
go test -count=1 -run 'TestCacheGenerations|TestCacheRendered|TestCacheBoundsTinyLimits' ./internal/xpath/plan
go test -count=1 -run 'TestSiblingParentAxisBytes' ./internal/xpath
go test -count=1 -run 'TestCountHitAllocs|TestPagedInsertAllocs|TestHandleExplainGolden' .

echo "==> label kernels (stored-form kernels byte-equal to the boxed ones, under race 3x and under the invariants tag; fuzz 5s; build equivalence and pins)"
go test -race -count=3 -run 'TestStoredKernelsMatchBoxed' ./internal/keys
go test -tags invariants -count=1 -run 'TestStoredKernelsMatchBoxed|FuzzArenaBetween' ./internal/keys
go test -run '^$' -fuzz 'FuzzArenaBetween' -fuzztime 5s ./internal/keys
go test -count=1 -run 'TestNewTreeMatchesMapBuild' ./internal/scheme
go test -count=1 -run 'TestRefusedInsertClaimsNothing|TestPackedPathAllocs' ./internal/containment
go test -count=1 -run 'TestOpenBytesBounded|TestEditBytesBounded' ./internal/dyndoc
go test -count=1 -run 'TestPagedInsertAllocs|TestMetricsJSON' .
go test -count=1 -run 'TestWarmLeafEditAllocs' ./internal/pagestore

echo "==> close-drain and eviction races under the race detector"
go test -race -count=1 -run 'TestCloseUnderLoad' .
go test -race -count=1 -run 'TestEvictAcquireRace|TestAcquireSingleflight' ./internal/catalog

echo "==> group-commit pipeline under the race detector"
go test -race -count=1 -run 'TestGroup|TestConcurrent|TestDurable|TestSyncIntervalStress|TestCloseVsAppend' ./internal/journal .

echo "==> replication + watch under the race detector"
go test -race -count=1 -run 'TestWatchStorm' ./internal/dyndoc
go test -race -count=1 -run 'TestFollowerKillMatrix|TestFollowerReadYourWrites|TestFollowerWatch' ./internal/journal
go test -race -count=1 -run 'TestOpenFollower' .
go test -race -count=1 -run 'TestClientFollowerReadYourWrites|TestClientWatch' ./client

echo "==> crash-safety suite (segment recovery + fault injection)"
go test -count=1 -run 'TestRecover|TestFault|TestSynced|TestReadAllTorn|TestHeaderBitFlip|TestSegment|TestPrefold' ./internal/journal
go test -count=1 ./internal/faultfs

echo "==> journal kill matrix (every write/sync fault point at durability=always, Create's own included)"
go test -count=1 -run 'TestKillMatrix|TestReplay|TestCheckpoint|TestUnfinishedCreate' ./internal/journal

echo "==> paged-label damage matrix (delete/truncate/corrupt page files, replay must restore)"
go test -count=1 -run 'TestPagedSurvivesPageFileDamage|TestPagedJournalRoundTrip' .
go test -count=1 -run 'TestTornFileEveryOffset' ./internal/pagestore

echo "==> follower kill matrix (kill the replica at every ship/persist point, catch up)"
go test -count=1 -run 'TestFollowerKillMatrix' ./internal/journal

echo "==> FuzzReadAll seed corpus (5s)"
go test -run '^$' -fuzz 'FuzzReadAll' -fuzztime 5s ./internal/journal

echo "==> FuzzPageRoundTrip + FuzzMetaDecode + FuzzPageValidate seed corpora (5s each, pagestore)"
go test -run '^$' -fuzz 'FuzzPageRoundTrip' -fuzztime 5s ./internal/pagestore
go test -run '^$' -fuzz 'FuzzMetaDecode' -fuzztime 5s ./internal/pagestore
go test -run '^$' -fuzz 'FuzzPageValidate' -fuzztime 5s -fuzzminimizetime 1s ./internal/pagestore

echo "==> FuzzEditCodec seed corpus (5s)"
go test -run '^$' -fuzz 'FuzzEditCodec' -fuzztime 5s ./internal/journal

echo "==> FuzzStreamDecode seed corpus (5s, hostile-leader ship frames)"
go test -run '^$' -fuzz 'FuzzStreamDecode' -fuzztime 5s ./internal/journal

echo "==> FuzzQueryReplyDecode seed corpus (5s, the client's fast reply decoder against encoding/json)"
go test -run '^$' -fuzz 'FuzzQueryReplyDecode' -fuzztime 5s ./client

echo "==> FuzzEncodeBetween seed corpus (5s each, cdbs + qed)"
go test -run '^$' -fuzz 'FuzzEncodeBetween' -fuzztime 5s ./internal/cdbs
go test -run '^$' -fuzz 'FuzzEncodeBetween' -fuzztime 5s ./internal/qed

echo "==> labelvet ./..."
go run ./cmd/labelvet ./...

echo "==> labelvet -tags invariants ./..."
go run ./cmd/labelvet -tags invariants ./...

echo "==> labelvet concurrency/durability tier (both tag states)"
go run ./cmd/labelvet -only guardedby,atomicmix,ackorder,lockorder ./...
go run ./cmd/labelvet -only guardedby,atomicmix,ackorder,lockorder -tags invariants ./...

echo "==> labelvet fixture coverage (every analyzer has a fixture dir)"
go run ./cmd/labelvet -list | while read -r name _; do
	dir="internal/analysis/testdata/src/$name"
	if ! ls "$dir"/*.go >/dev/null 2>&1; then
		echo "labelvet: analyzer $name has no fixture under $dir" >&2
		exit 1
	fi
done

echo "==> bench smoke (-benchtime 1x)"
go test -run '^$' -bench . -benchtime 1x ./internal/bitstr ./internal/cdbs ./internal/qed ./internal/containment

echo "==> metrics snapshot smoke (-metrics-json)"
metrics_out="${METRICS_SMOKE_OUT:-/tmp/metrics_smoke.json}"
go run ./cmd/experiments -run overflow,durable,follow -edits 60 -metrics-json "$metrics_out" >/dev/null
for key in labelstore_sync_seconds labelstore_records_total cdbs_relabel_burst_codes qed_code_len_digits dyndoc_inserts_total dyndoc_snapshot_swaps_total dyndoc_reader_staleness_gens dyndoc_batch_size cdbs_batch_insert_codes journal_append_seconds journal_appends_total journal_group_commits_total journal_group_commit_batches journal_checkpoints_total journal_checkpoint_reclaimed_bytes_total journal_replayed_edits_total xpath_plan_cache_hits_total xpath_result_cache_hits_total xpath_join_parallel_parts journal_ship_requests_total journal_ship_batches_total journal_ship_bytes_total journal_ship_snapshots_total watch_watchers_active watch_events_total watch_notifications_total watch_coalesced_total watch_requeries_total follower_lag_seqs follower_applied_total follower_resets_total follower_polls_total; do
	if ! grep -q "\"$key\"" "$metrics_out"; then
		echo "metrics smoke: $key missing from $metrics_out" >&2
		exit 1
	fi
done

echo "==> httpd smoke (dynxmld route surface via dynxmlctl + graceful shutdown)"
httpd_dir=$(mktemp -d)
httpd_bin="$httpd_dir/dynxmld"
ctl="$httpd_dir/dynxmlctl"
httpd_addr_file="$httpd_dir/addr"
go build -o "$httpd_bin" ./cmd/dynxmld
go build -o "$ctl" ./cmd/dynxmlctl
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
"$ctl" create ci '<root><a></a></root>' >/dev/null || httpd_fail "create"
root_id=$("$ctl" query -first ci /root) || httpd_fail "query gave no root id"
edit_seq=$("$ctl" insert -seq ci "$root_id" 0 x) || httpd_fail "edit"
[ "$edit_seq" -gt 0 ] || httpd_fail "edit ack carried no journal seq"
"$ctl" batch ci "[{\"op\":\"insert-tree\",\"parent\":$root_id,\"pos\":0,\"fragment\":\"<x><y></y></x>\"}]" >/dev/null || httpd_fail "batch"
[ "$("$ctl" count ci /root/x)" = "2" ] || httpd_fail "query after edits"
"$ctl" explain ci /root/x | grep -q 'strategy' || httpd_fail "explain"
"$ctl" sync ci || httpd_fail "sync"
"$ctl" checkpoint ci || httpd_fail "checkpoint"
"$ctl" stats ci | grep -q '"journal"' || httpd_fail "stats"
"$ctl" xml ci | grep -q '<y>' || httpd_fail "xml"
"$ctl" list | grep -q '"name":"ci"' || httpd_fail "list"
"$ctl" horizon -min "$edit_seq" -wait 5s ci >/dev/null || httpd_fail "horizon"
"$ctl" close ci || httpd_fail "close"
"$ctl" open ci >/dev/null || httpd_fail "reopen after close"
[ "$("$ctl" count ci /root/x)" = "2" ] || httpd_fail "replay lost an edit"
"$ctl" watch -n 1 -timeout 10s ci /root/w >"$httpd_dir/watch.out" 2>&1 &
watch_pid=$!
sleep 0.5
"$ctl" insert ci "$root_id" 0 w >/dev/null || httpd_fail "insert under watch"
wait "$watch_pid" || httpd_fail "watch never fired: $(cat "$httpd_dir/watch.out")"
grep -q '"added":1' "$httpd_dir/watch.out" || httpd_fail "watch notification malformed: $(cat "$httpd_dir/watch.out")"
if "$ctl" open ghost >/dev/null 2>&1; then httpd_fail "unknown doc did not fail"; fi
vars_out="$httpd_dir/vars.json"
curl -sf "$httpd_url/debug/vars" >"$vars_out" || httpd_fail "debug/vars"
for key in web_requests_total web_inflight_requests web_panics_total web_timeouts_total \
	web_route_query_latency_seconds web_route_open_responses_2xx_total \
	web_route_journal_inflight web_route_watch_inflight web_route_horizon_inflight \
	catalog_opens_total catalog_replays_total catalog_open_docs catalog_resident_bytes catalog_evictions_total; do
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
seq1=$("$ctl" insert -seq ci "$root_id" 0 rep) || repl_fail "leader write"
"$ctl" -addr "$repl_url" horizon -min "$seq1" -wait 10s ci >/dev/null || repl_fail "follower never reached seq $seq1"
[ "$("$ctl" -addr "$repl_url" count ci /root/rep)" = "1" ] || repl_fail "leader write invisible on follower"
# Mutations on the follower are rejected read-only.
if "$ctl" -addr "$repl_url" insert ci "$root_id" 0 nope >/dev/null 2>&1; then
	repl_fail "follower accepted a write"
fi
# SIGKILL the follower mid-life; its mirror must let a restart catch up.
kill -KILL "$repl_pid"
wait "$repl_pid" 2>/dev/null || true
seq2=$("$ctl" insert -seq ci "$root_id" 0 rep) || repl_fail "leader write while follower dead"
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
"$ctl" -addr "$repl_url" horizon -min "$seq2" -wait 10s ci >/dev/null || repl_fail "restarted follower never caught up to seq $seq2"
[ "$("$ctl" -addr "$repl_url" count ci /root/rep)" = "2" ] || repl_fail "catch-up lost a write"
kill -TERM "$repl_pid"
repl_status=0
wait "$repl_pid" || repl_status=$?
[ "$repl_status" = "0" ] || repl_fail "follower SIGTERM exit status $repl_status, want 0"

kill -TERM "$httpd_pid"
httpd_status=0
wait "$httpd_pid" || httpd_status=$?
[ "$httpd_status" = "0" ] || httpd_fail "SIGTERM exit status $httpd_status, want 0"
rm -rf "$httpd_dir"

echo "==> benchmark module (build, vet, test, smoke run with the layer ladder)"
(cd benchmark && go build -o /dev/null . && go vet ./... && go test ./...)
bash benchmark/run.sh --smoke --trace 1 >/dev/null

echo "CI gate passed."
