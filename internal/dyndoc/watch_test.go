package dyndoc

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/xpath"
)

// recv waits for one notification with a generous deadline.
func recv(t *testing.T, ch <-chan Notification) Notification {
	t.Helper()
	select {
	case n, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed unexpectedly")
		}
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for notification")
	}
	panic("unreachable")
}

func TestCompileSpine(t *testing.T) {
	cases := []struct {
		path  string
		spine bool
	}{
		{"/library/shelf", true},
		{"//book", true},
		{"/library//book", true},
		{"/*/shelf", true},
		{"/library/shelf[1]", false},
		{"/library/shelf[./book]", false},
		{"//book/following-sibling::book", false},
	}
	for _, tc := range cases {
		q, err := xpath.Parse(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if got := compileSpine(q) != nil; got != tc.spine {
			t.Errorf("compileSpine(%s) = %v, want %v", tc.path, got, tc.spine)
		}
	}
}

// TestSpineMatches cross-checks the incremental spine matcher against
// full query evaluation: every node the engine returns must match, and
// no other live element may.
func TestSpineMatches(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/library/shelf", "//book", "/library//book", "/*/shelf", "//shelf//book", "/library"} {
		q, err := xpath.Parse(path)
		if err != nil {
			t.Fatal(err)
		}
		sp := compileSpine(q)
		if sp == nil {
			t.Fatalf("%s should compile to a spine", path)
		}
		want, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		inSet := map[int]bool{}
		for _, id := range want {
			inSet[id] = true
		}
		d := c.load().d
		for _, id := range d.Labeling().Tree().PreOrder() {
			if got := sp.matches(d, id); got != inSet[id] {
				t.Errorf("%s: matches(%d) = %v, want %v", path, id, got, inSet[id])
			}
		}
	}
}

func TestWatchSpineInsertDelete(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := c.Watch("//book")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	shelves, err := c.QueryString("/library/shelf")
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.InsertElement(shelves[0], 0, "book")
	if err != nil {
		t.Fatal(err)
	}
	n := recv(t, ch)
	if n.Added != 1 || n.Removed != 0 || n.Requeried {
		t.Fatalf("insert notification = %+v, want Added=1 Removed=0 via spine", n)
	}
	if len(n.IDs) != 1 || n.IDs[0] != id {
		t.Fatalf("notification IDs = %v, want [%d]", n.IDs, id)
	}

	// A non-matching insert must not notify; prove it by following with
	// a matching one and asserting the next notification covers only it.
	if _, _, err := c.InsertElement(shelves[0], 0, "pamphlet"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InsertElement(shelves[1], 0, "book"); err != nil {
		t.Fatal(err)
	}
	n = recv(t, ch)
	if n.Added != 1 || n.Removed != 0 {
		t.Fatalf("after non-matching insert, notification = %+v, want Added=1", n)
	}

	// Deleting a shelf removes the books under it.
	before, err := c.Count("/library/shelf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteSubtree(shelves[0]); err != nil {
		t.Fatal(err)
	}
	n = recv(t, ch)
	if n.Removed < 1 || n.Added != 0 {
		t.Fatalf("delete notification = %+v, want Removed>=1", n)
	}
	after, err := c.Count("/library/shelf")
	if err != nil {
		t.Fatal(err)
	}
	if after != before-1 {
		t.Fatalf("shelf count %d, want %d", after, before-1)
	}
}

func TestWatchFallbackAndReset(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	// A positional predicate is not a spine: deltas come from requery.
	ch, cancel, err := c.Watch("/library/shelf[./book]/book")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	shelves, err := c.QueryString("/library/shelf")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InsertElement(shelves[0], 0, "book"); err != nil {
		t.Fatal(err)
	}
	n := recv(t, ch)
	if !n.Requeried || n.Added != 1 {
		t.Fatalf("fallback notification = %+v, want Requeried Added=1", n)
	}

	// A raw Update is a reset event: spine watchers requery too.
	sch, scancel, err := c.Watch("//book")
	if err != nil {
		t.Fatal(err)
	}
	defer scancel()
	err = c.Update(func(d *Document) error {
		_, _, err := d.InsertElement(shelves[1], 0, "book")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	n = recv(t, sch)
	if !n.Requeried || n.Added != 1 {
		t.Fatalf("reset notification = %+v, want Requeried Added=1", n)
	}
}

func TestWatchCancelClosesChannel(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := c.Watch("//book")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Watchers(); got != 1 {
		t.Fatalf("Watchers() = %d, want 1", got)
	}
	cancel()
	cancel() // idempotent
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("received notification after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
	if got := c.Watchers(); got != 0 {
		t.Fatalf("Watchers() = %d after cancel, want 0", got)
	}
}

// TestWatchCoalesce checks that a slow receiver gets one folded
// notification covering every missed batch, not a queue.
func TestWatchCoalesce(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := c.Watch("//book")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	shelves, err := c.QueryString("/library/shelf")
	if err != nil {
		t.Fatal(err)
	}
	const inserts = 20
	for i := 0; i < inserts; i++ {
		if _, _, err := c.InsertElement(shelves[0], 0, "book"); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	deadline := time.After(5 * time.Second)
	for total < inserts {
		select {
		case n := <-ch:
			total += n.Added
		case <-deadline:
			t.Fatalf("saw %d of %d inserts before timeout", total, inserts)
		}
	}
	if total != inserts {
		t.Fatalf("total Added = %d, want %d", total, inserts)
	}
}

// TestWatchStorm churns watcher registration/cancellation against
// concurrent writers — the -race exercise for the dispatch path.
func TestWatchStorm(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	shelves, err := c.QueryString("/library/shelf")
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"//book", "/library/shelf", "/library//book", "/library/shelf[./book]"}

	const writers = 3
	const watcherGoroutines = 6
	const opsEach = 60
	var wg sync.WaitGroup
	errCh := make(chan error, writers+watcherGoroutines)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A writer deletes only what it inserted: racing another
			// writer to the same id would make the loser's delete fail.
			var mine []int
			for i := 0; i < opsEach; i++ {
				if i%10 == 9 && len(mine) > 0 {
					if _, err := c.DeleteSubtree(mine[0]); err != nil {
						errCh <- err
						return
					}
					mine = mine[1:]
					continue
				}
				id, _, err := c.InsertElement(shelves[w%len(shelves)], 0, "storm")
				if err != nil {
					errCh <- err
					return
				}
				mine = append(mine, id)
			}
		}(w)
	}
	for g := 0; g < watcherGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsEach; i++ {
				ch, cancel, err := c.Watch(paths[rng.Intn(len(paths))])
				if err != nil {
					errCh <- err
					return
				}
				// Sometimes drain a notification, sometimes cancel cold,
				// sometimes cancel while a send may be in flight.
				switch rng.Intn(3) {
				case 0:
					select {
					case <-ch:
					case <-time.After(time.Millisecond):
					}
				case 1:
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := c.Watchers(); got != 0 {
		t.Fatalf("Watchers() = %d after storm, want 0", got)
	}
}

// TestWatchReplayDelta checks the follower-facing Replay path delivers
// precise (non-requery) deltas to spine watchers.
func TestWatchReplayDelta(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := c.Watch("//book")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	shelves, err := c.QueryString("/library/shelf")
	if err != nil {
		t.Fatal(err)
	}
	err = c.Replay(func(d *Document) ([]Edit, []EditResult, error) {
		edits := []Edit{{Op: OpInsertElement, Parent: shelves[0], Pos: 0, Name: "book"}}
		results, err := d.ApplyBatch(edits)
		if err != nil {
			return nil, nil, err
		}
		return edits, results, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := recv(t, ch)
	if n.Added != 1 || n.Requeried {
		t.Fatalf("replay notification = %+v, want precise Added=1", n)
	}
}

func TestReplayAndResetRejectJournaled(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	c.SetCommitHook(func(edits []Edit, results []EditResult) (func() error, error) {
		return nil, nil
	})
	if err := c.Replay(func(d *Document) ([]Edit, []EditResult, error) {
		return nil, nil, nil
	}); err != ErrFollowerOnly {
		t.Fatalf("Replay on journaled doc = %v, want ErrFollowerOnly", err)
	}
	d2, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(d2); err != ErrFollowerOnly {
		t.Fatalf("Reset on journaled doc = %v, want ErrFollowerOnly", err)
	}
}

func BenchmarkSpineMatch(b *testing.B) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		b.Fatal(err)
	}
	q, err := xpath.Parse("/library//book")
	if err != nil {
		b.Fatal(err)
	}
	sp := compileSpine(q)
	d := c.load().d
	ids := d.Labeling().Tree().PreOrder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.matches(d, ids[i%len(ids)])
	}
}
