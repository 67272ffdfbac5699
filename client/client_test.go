package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	dynxml "repro"
	"repro/client"
	"repro/internal/catalog"
	"repro/internal/journal"
	"repro/internal/web"
)

// newServer boots a real leader server over a temp catalog root.
func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	cat, err := catalog.Open(catalog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cat.Close() })
	ts := httptest.NewServer(web.New(web.Config{Catalog: cat}))
	t.Cleanup(ts.Close)
	return ts
}

// newFollowerServer boots a follower server replicating from leaderURL.
func newFollowerServer(t *testing.T, leaderURL string) *httptest.Server {
	t.Helper()
	cat, err := catalog.Open(catalog.Config{Root: t.TempDir(), FollowURL: leaderURL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cat.Close() })
	ts := httptest.NewServer(web.New(web.Config{Catalog: cat}))
	t.Cleanup(ts.Close)
	return ts
}

func recvNotification(t *testing.T, ch <-chan client.Notification) client.Notification {
	t.Helper()
	select {
	case n, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed early")
		}
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a watch notification")
	}
	panic("unreachable")
}

// TestClientRoundTrip drives every Doc method against a live server.
func TestClientRoundTrip(t *testing.T) {
	ts := newServer(t)
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	doc, err := c.Create("books", "<library><shelf><book/></shelf></library>", "")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Scheme() != dynxml.DefaultScheme {
		t.Fatalf("scheme = %q, want %q", doc.Scheme(), dynxml.DefaultScheme)
	}
	if _, err := c.Create("books", "<x/>", ""); !strings.Contains(errAs(t, err).Code, client.CodeExists) {
		t.Fatalf("duplicate create: got %v", err)
	}
	if _, err := c.Open("missing"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("open missing: got %v, want ErrNotFound", err)
	}

	shelf, err := doc.Query("/library/shelf")
	if err != nil || len(shelf) != 1 {
		t.Fatalf("Query = %v, %v", shelf, err)
	}
	ack, err := doc.InsertElement(shelf[0], 0, "book")
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied != 1 || len(ack.Results) != 1 || len(ack.Results[0].IDs) != 1 {
		t.Fatalf("insert ack = %+v", ack)
	}
	if ack.Seq == 0 {
		t.Fatalf("insert ack carries no journal seq: %+v", ack)
	}
	if ack, err = doc.InsertTree(shelf[0], 0, "<book><title/></book>"); err != nil || len(ack.Results[0].IDs) != 2 {
		t.Fatalf("InsertTree ack = %+v, %v", ack, err)
	}
	back, err := doc.Batch([]client.Edit{
		{Op: "insert-element", Parent: shelf[0], Pos: 0, Name: "book"},
		{Op: "delete", Node: ack.Results[0].IDs[0]},
	})
	if err != nil || back.Applied != 2 || back.Results[1].Removed != 2 {
		t.Fatalf("Batch ack = %+v, %v", back, err)
	}
	if n, err := doc.Count("/library/shelf/book"); err != nil || n != 3 {
		t.Fatalf("Count = %d, %v, want 3", n, err)
	}
	if xml, err := doc.XML(); err != nil || !strings.Contains(xml, "<library>") {
		t.Fatalf("XML = %q, %v", xml, err)
	}
	if explain, err := doc.Explain("/library//book"); err != nil || explain == "" {
		t.Fatalf("Explain = %q, %v", explain, err)
	}
	if err := doc.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := doc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := doc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Journal == nil || st.Journal.Seq != back.Seq {
		t.Fatalf("Stats journal = %+v, want seq %d", st.Journal, back.Seq)
	}
	if st.ResidentBytes <= 0 {
		t.Fatalf("Stats resident_bytes = %d, want the document's estimate", st.ResidentBytes)
	}
	if hor, reached, err := doc.FollowHorizon(back.Seq, time.Second); err != nil || !reached || hor < back.Seq {
		t.Fatalf("FollowHorizon = %d, %v, %v", hor, reached, err)
	}
	if list, err := c.List(); err != nil || len(list) != 1 || list[0].Name != "books" {
		t.Fatalf("List = %+v, %v", list, err)
	}

	// The raw journal endpoint serves a decodable from-scratch chunk.
	raw, err := doc.Journal(^uint64(0), 64)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := journal.DecodeShipStream(bytes.NewReader(raw), journal.FromScratch)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Snapshot == nil || chunk.Horizon != back.Seq {
		t.Fatalf("ship chunk = snapshot %v, horizon %d (want %d)", chunk.Snapshot != nil, chunk.Horizon, back.Seq)
	}

	if err := doc.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed means evicted, not gone: the next call replays it.
	if n, err := doc.Count("/library/shelf/book"); err != nil || n != 3 {
		t.Fatalf("Count after close = %d, %v", n, err)
	}
}

func errAs(t *testing.T, err error) *client.APIError {
	t.Helper()
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v (%T), want *client.APIError", err, err)
	}
	return ae
}

// TestClientWatch subscribes over SSE and sees an insert arrive.
func TestClientWatch(t *testing.T) {
	ts := newServer(t)
	c, err := client.Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.Create("w", "<root><a/></root>", "")
	if err != nil {
		t.Fatal(err)
	}
	root, err := doc.Query("/root")
	if err != nil || len(root) != 1 {
		t.Fatalf("Query /root = %v, %v", root, err)
	}
	ch, cancel, err := doc.Watch(context.Background(), "/root/item")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, err := doc.InsertElement(root[0], 0, "item"); err != nil {
		t.Fatal(err)
	}
	n := recvNotification(t, ch)
	if n.Added != 1 || n.Removed != 0 || n.Batches != 1 {
		t.Fatalf("notification = %+v, want one add in one batch", n)
	}
	cancel()
	for range ch {
	}
}

// TestClientRetriesWith503 proves a 503 is retried under the same
// request id and the call still succeeds.
func TestClientRetriesWith503(t *testing.T) {
	ts := newServer(t)
	var rids []string
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rids = append(rids, r.Header.Get("X-Request-ID"))
		if len(rids) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"draining","code":"unavailable","request_id":"x"}`))
			return
		}
		r.Host = ""
		proxy, _ := http.NewRequest(r.Method, ts.URL+r.URL.String(), r.Body)
		proxy.Header = r.Header
		resp, err := http.DefaultClient.Do(proxy)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				_, _ = w.Write(buf[:n])
			}
			if err != nil {
				break
			}
		}
	}))
	defer flaky.Close()
	c, err := client.Dial(flaky.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("r", "<root/>", ""); err != nil {
		t.Fatalf("create through flaky server: %v", err)
	}
	if len(rids) < 2 {
		t.Fatalf("expected a retry, saw %d attempts", len(rids))
	}
	if rids[0] == "" || rids[0] != rids[1] {
		t.Fatalf("request id not reused across retries: %q vs %q", rids[0], rids[1])
	}
}

// TestClientFollowerReadYourWrites drives the full replication stack:
// write through the leader server, wait the ack'd sequence on the
// follower server, read there.
func TestClientFollowerReadYourWrites(t *testing.T) {
	leader := newServer(t)
	follower := newFollowerServer(t, leader.URL)

	lc, err := client.Dial(leader.URL)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := client.Dial(follower.URL)
	if err != nil {
		t.Fatal(err)
	}
	ldoc, err := lc.Create("rep", "<root/>", "")
	if err != nil {
		t.Fatal(err)
	}
	root, err := ldoc.Query("/root")
	if err != nil || len(root) != 1 {
		t.Fatalf("Query /root = %v, %v", root, err)
	}
	ack, err := ldoc.InsertElement(root[0], 0, "first")
	if err != nil {
		t.Fatal(err)
	}

	fdoc, err := fc.Open("rep")
	if err != nil {
		t.Fatal(err)
	}
	if hor, reached, err := fdoc.FollowHorizon(ack.Seq, 5*time.Second); err != nil || !reached {
		t.Fatalf("follower FollowHorizon(%d) = %d, %v, %v", ack.Seq, hor, reached, err)
	}
	if n, err := fdoc.Count("/root/first"); err != nil || n != 1 {
		t.Fatalf("follower Count = %d, %v", n, err)
	}
	// Writes on the follower are rejected with the stable code.
	if _, err := fdoc.InsertElement(root[0], 0, "nope"); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("follower insert: got %v, want ErrReadOnly", err)
	}
	// A name the leader does not serve maps to not_found end to end.
	if _, err := fc.Open("ghost"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("follower open ghost: got %v, want ErrNotFound", err)
	}

	// Watch on the follower hears a leader write.
	ch, cancel, err := fdoc.Watch(context.Background(), "/root/second")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ack2, err := ldoc.InsertElement(root[0], 0, "second")
	if err != nil {
		t.Fatal(err)
	}
	n := recvNotification(t, ch)
	if n.Added != 1 {
		t.Fatalf("follower watch notification = %+v", n)
	}
	// The notification fires at publication; the durable horizon only
	// advances after the mirror sync. Wait it out before asserting.
	if hor, reached, err := fdoc.FollowHorizon(ack2.Seq, 5*time.Second); err != nil || !reached {
		t.Fatalf("follower FollowHorizon(%d) = %d, %v, %v", ack2.Seq, hor, reached, err)
	}
	if st, err := fdoc.Stats(); err != nil || st.Replica == nil || st.Replica.Horizon < ack2.Seq {
		t.Fatalf("follower stats = %+v, %v", st, err)
	}
}

// TestDefaultTimeoutsOrdered: a default client outwaits a default
// server, so a call the server gives up on ends in its typed 504, not in
// the client's deadline firing at the same moment.
func TestDefaultTimeoutsOrdered(t *testing.T) {
	if client.DefaultTimeout != web.DefaultTimeout+5*time.Second {
		t.Fatalf("client.DefaultTimeout %v, web.DefaultTimeout %v: want the client's 5 s longer",
			client.DefaultTimeout, web.DefaultTimeout)
	}
}
