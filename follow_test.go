package dynxml

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// leaderHandle opens a journaled leader over a fresh directory.
func leaderHandle(t *testing.T, dir string) *Handle {
	t.Helper()
	h, err := Open(openSeed, WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

// leaderInsert applies one insert on the leader and returns the ack'd
// journal sequence.
func leaderInsert(t *testing.T, h *Handle, parent int, name string) uint64 {
	t.Helper()
	if _, _, err := h.InsertElement(parent, 0, name); err != nil {
		t.Fatal(err)
	}
	return h.Stats().Journal.Seq
}

// rootID resolves the document root's node id.
func rootID(t *testing.T, h *Handle) int {
	t.Helper()
	ids, err := h.QueryString("/library")
	if err != nil || len(ids) != 1 {
		t.Fatalf("QueryString(/library) = %v, %v", ids, err)
	}
	return ids[0]
}

// assertReadOnly drives every mutating entry point and expects
// ErrReadOnly from each.
func assertReadOnly(t *testing.T, f *Handle) {
	t.Helper()
	if _, _, err := f.InsertElement(1, 0, "x"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertElement on follower: %v", err)
	}
	doc, err := ParseXMLString("<x/>")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.InsertTree(1, 0, doc.Root); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertTree on follower: %v", err)
	}
	if _, _, err := f.InsertTreeBatch(1, 0, []*Node{doc.Root}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("InsertTreeBatch on follower: %v", err)
	}
	if _, err := f.DeleteSubtree(1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("DeleteSubtree on follower: %v", err)
	}
	if _, err := f.ApplyBatch([]Edit{{Op: OpInsertElement, Parent: 1, Name: "x"}}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ApplyBatch on follower: %v", err)
	}
	if err := f.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Checkpoint on follower: %v", err)
	}
}

// shipServer serves leader's journal the way dynxmld's /v1 journal
// endpoint does: a minimal handler built on Handle.Ship.
func shipServer(t *testing.T, leader *Handle) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
		chunk, err := leader.Ship(from, limit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(chunk)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestOpenFollowerURL follows over HTTP into a mirror directory: the
// replica converges, hears leader writes through Watch, reports its
// position in Stats and rejects every mutation.
func TestOpenFollowerURL(t *testing.T) {
	leader := leaderHandle(t, t.TempDir())
	root := rootID(t, leader)
	seq := leaderInsert(t, leader, root, "w1")
	srv := shipServer(t, leader)

	f, err := OpenFollower(nil, WithFollowURL(srv.URL), WithFollowDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Following() || !f.Concurrent() {
		t.Fatalf("follower reports Following=%v Concurrent=%v", f.Following(), f.Concurrent())
	}
	if f.Scheme() != DefaultScheme {
		t.Fatalf("follower scheme %q", f.Scheme())
	}
	if hor, ok, err := f.FollowHorizon(seq, 5*time.Second); err != nil || !ok {
		t.Fatalf("FollowHorizon(%d) = %d, %v, %v", seq, hor, ok, err)
	}
	if n, err := f.Count("/library/w1"); err != nil || n != 1 {
		t.Fatalf("follower Count(w1) = %d, %v", n, err)
	}
	assertReadOnly(t, f)

	// Watch on the follower hears a leader write arriving via replay.
	ch, cancel, err := f.Watch("/library/w2")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	seq = leaderInsert(t, leader, root, "w2")
	if hor, ok, err := f.FollowHorizon(seq, 5*time.Second); err != nil || !ok {
		t.Fatalf("FollowHorizon(%d) = %d, %v, %v", seq, hor, ok, err)
	}
	if n, err := f.Count("/library/w2"); err != nil || n != 1 {
		t.Fatalf("follower Count(w2) = %d, %v", n, err)
	}
	select {
	case n := <-ch:
		if n.Added != 1 {
			t.Fatalf("notification %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no watch notification on the follower")
	}
	st := f.Stats()
	if !st.Following || st.Replica.Seq != seq || st.Replica.Horizon != seq {
		t.Fatalf("follower stats %+v, want seq/horizon %d", st.Replica, seq)
	}
}

// TestOpenFollowerNeverAheadOfDurable pins what feeding every replica
// through Ship buys: a batch the leader could still lose to a crash is
// never visible on a follower. Under durability None two edits are
// acknowledged but not fsynced; the follower sees neither until the
// leader's Sync moves its durable horizon.
func TestOpenFollowerNeverAheadOfDurable(t *testing.T) {
	leader, err := Open(openSeed, WithJournal(t.TempDir()), WithDurability(None))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv := shipServer(t, leader)
	f, err := OpenFollower(nil, WithFollowURL(srv.URL), WithFollowDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	root := rootID(t, leader)
	leaderInsert(t, leader, root, "u1")
	seq := leaderInsert(t, leader, root, "u2")
	if h := leader.Horizon(); h != 0 {
		t.Fatalf("leader durable horizon %d before any sync, want 0", h)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats().Replica; st.Seq != 0 || st.Horizon != 0 {
		t.Fatalf("replica at seq=%d horizon=%d, ahead of the leader's durable horizon 0", st.Seq, st.Horizon)
	}
	for _, name := range []string{"u1", "u2"} {
		if n, err := f.Count("/library/" + name); err != nil || n != 0 {
			t.Fatalf("follower Count(%s) = %d, %v before the leader synced; want 0", name, n, err)
		}
	}

	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats().Replica; st.Seq != seq || st.Horizon != seq {
		t.Fatalf("replica at seq=%d horizon=%d after the leader synced, want %d", st.Seq, st.Horizon, seq)
	}
	for _, name := range []string{"u1", "u2"} {
		if n, err := f.Count("/library/" + name); err != nil || n != 1 {
			t.Fatalf("follower Count(%s) = %d, %v after the leader synced; want 1", name, n, err)
		}
	}
}

// TestFollowerOptionValidation pins the option cross-checks.
func TestFollowerOptionValidation(t *testing.T) {
	if _, err := Open(openSeed, WithFollowURL("http://x")); err == nil {
		t.Fatal("Open accepted WithFollowURL")
	}
	if _, err := OpenFollower(openSeed, WithFollowDir(t.TempDir())); err == nil {
		t.Fatal("OpenFollower accepted non-nil src")
	}
	if _, err := OpenFollower(nil); err == nil {
		t.Fatal("OpenFollower accepted no follow options")
	}
	if _, err := OpenFollower(nil, WithFollowURL("http://x"), WithFollowDir(t.TempDir()), WithJournal(t.TempDir())); err == nil {
		t.Fatal("OpenFollower accepted WithJournal")
	}
	if _, err := OpenFollower(nil, WithFollowURL("http://x")); err == nil {
		t.Fatal("OpenFollower accepted a URL without a mirror directory")
	}
	if _, err := OpenFollower(nil, WithFollowDir(t.TempDir())); err == nil {
		t.Fatal("OpenFollower accepted a mirror directory without a URL")
	}
}

// TestFollowerNotFoundOverHTTP maps a leader 404 to ErrNotFound.
func TestFollowerNotFoundOverHTTP(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	_, err := OpenFollower(nil, WithFollowURL(srv.URL), WithFollowDir(t.TempDir()))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}
