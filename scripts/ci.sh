#!/bin/sh
# ci.sh — the full verification gate, runnable locally and in CI. The
# gate is a rule, not a list: a test is gated by existing.
#
#   1. gofmt, go vet, go build (both tag states)
#   2. go test ./..., plain, under -tags invariants and under -race,
#      then the clone-isolation and storm tests three more times
#   3. every Fuzz* target for 5 s (scripts/fuzz.sh)
#   4. labelvet (both tag states, concurrency tier, fixture coverage)
#   5. bench smoke, metrics smoke
#   6. httpd smoke, replication smoke
#   7. benchmark module (build, vet, test, smoke run)
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

echo "==> go test -tags invariants ./..."
go test -tags invariants ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> clone isolation, memo and cache storms, stored kernels (race, 3x)"
go test -race -count=3 -run 'TestArenaCloneIsolation|TestStarQueryStorm|TestStampedCache|TestStoredKernelsMatchBoxed' ./...

echo "==> every fuzz target, 5s each"
sh scripts/fuzz.sh 5s

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
