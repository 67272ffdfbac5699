package dyndoc

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/datagen"
	"repro/internal/keys"
	"repro/internal/xmltree"
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

func TestWatchInsertDelete(t *testing.T) {
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
	if n.Added != 1 || n.Removed != 0 || n.Batches != 1 || n.Gen != 1 {
		t.Fatalf("insert notification = %+v, want Gen=1 Batches=1 Added=1", n)
	}
	if len(n.IDs) != 1 || n.IDs[0] != id {
		t.Fatalf("notification IDs = %v, want [%d]", n.IDs, id)
	}

	// An insert the query does not read reports nothing; the next
	// notification counts its generation.
	if _, _, err := c.InsertElement(shelves[0], 0, "pamphlet"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InsertElement(shelves[1], 0, "book"); err != nil {
		t.Fatal(err)
	}
	n = recv(t, ch)
	if n.Added != 1 || n.Removed != 0 || n.Batches != 2 || n.Gen != 3 {
		t.Fatalf("after a non-matching insert, notification = %+v, want Gen=3 Batches=2 Added=1", n)
	}

	// Deleting a shelf removes the books under it: the seed's two and
	// the one inserted first.
	if _, err := c.DeleteSubtree(shelves[0]); err != nil {
		t.Fatal(err)
	}
	n = recv(t, ch)
	if n.Removed != 3 || n.Added != 0 {
		t.Fatalf("delete notification = %+v, want Removed=3", n)
	}
}

// TestWatchPredicateAndReset: a predicate query, a raw Update and a
// wholesale Reset reach a watcher like a typed edit does.
func TestWatchPredicateAndReset(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	const path = "/library/shelf[./book]/book"
	ch, cancel, err := c.Watch(path)
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
	if n := recv(t, ch); n.Added != 1 || n.Removed != 0 {
		t.Fatalf("predicate notification = %+v, want Added=1", n)
	}
	err = c.Update(func(d *Document) error {
		_, _, err := d.InsertElement(shelves[1], 0, "book")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := recv(t, ch); n.Added != 1 || n.Removed != 0 {
		t.Fatalf("Update notification = %+v, want Added=1", n)
	}

	before, err := c.Count(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Parse(`<library><shelf><book/></shelf><shelf/></library>`, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(fresh); err != nil {
		t.Fatal(err)
	}
	after, err := c.Count(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := recv(t, ch); n.Added-n.Removed != after-before || n.Gen != c.Generation() {
		t.Fatalf("Reset notification = %+v, want a net change of %d at generation %d", n, after-before, c.Generation())
	}
}

// TestWatchReplayDelta: a run of batches replayed through Update, as a
// follower applies its leader's, reaches a watcher as its net change:
// an element inserted and deleted within the run is not reported.
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
	var kept int
	err = c.Update(func(d *Document) error {
		res, err := d.ApplyBatch([]Edit{
			{Op: OpInsertElement, Parent: shelves[0], Pos: 0, Name: "book"},
			{Op: OpInsertElement, Parent: shelves[1], Pos: 0, Name: "book"},
		})
		if err != nil {
			return err
		}
		kept = res[1].IDs[0]
		_, err = d.ApplyBatch([]Edit{{Op: OpDeleteSubtree, Node: res[0].IDs[0]}})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	n := recv(t, ch)
	if n.Added != 1 || n.Removed != 0 || !slices.Equal(n.IDs, []int{kept}) {
		t.Fatalf("replay notification = %+v, want Added=1 IDs=[%d]", n, kept)
	}
}

func TestResetRejectsJournaled(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	c.SetCommitHook(func(edits []Edit, results []EditResult) (func() error, error) {
		return nil, nil
	})
	d2, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(d2); err != ErrRawUpdate {
		t.Fatalf("Reset on journaled doc = %v, want ErrRawUpdate", err)
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

	// EndWatches closes every channel, one with a notification waiting
	// for its receiver included.
	waiting, _, err := c.Watch("//book")
	if err != nil {
		t.Fatal(err)
	}
	idle, _, err := c.Watch("//shelf")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.InsertElement(0, 0, "book"); err != nil {
		t.Fatal(err)
	}
	for c.waiting() == 0 {
		runtime.Gosched()
	}
	c.EndWatches()
	for _, ch := range []<-chan Notification{waiting, idle} {
		select {
		case <-ch: // the waiting notification may still win; then the close follows
		case <-time.After(5 * time.Second):
			t.Fatal("channel not closed by EndWatches")
		}
		if _, ok := <-ch; ok {
			t.Fatal("channel still open after EndWatches")
		}
	}
	if got := c.Watchers(); got != 0 {
		t.Fatalf("Watchers() = %d after EndWatches, want 0", got)
	}
}

// waiting counts the watchers with a notification waiting for its
// receiver.
func (c *Concurrent) waiting() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := 0
	for w := range c.watchers {
		if w.inflight {
			n++
		}
	}
	return n
}

// TestWatchCoalesce checks that a slow receiver gets one folded
// notification covering every batch it missed, not a queue.
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
	// At most one notification was read before the receiver fell
	// behind; the next covers everything after it.
	var got []Notification
	added, batches := 0, 0
	for added < inserts {
		n := recv(t, ch)
		got = append(got, n)
		added += n.Added
		batches += n.Batches
	}
	if added != inserts || batches != inserts || len(got) > 2 || got[len(got)-1].Gen != inserts {
		t.Fatalf("notifications %+v: want %d added over %d batches in at most 2, the last at generation %d", got, inserts, inserts, inserts)
	}
}

// stormPaths are the storm's watched queries, child/descendant and
// predicate shapes. A shelf holding two books, inserted under the
// library, adds to every answer.
var stormPaths = []string{
	"//book",
	"/library/shelf",
	"/library//book",
	"/library/shelf[./book]",
	"/library/shelf[./book]/book",
	"//book/following-sibling::book",
	"//*",
}

// watchLog records one watcher's notifications until its channel
// closes.
type watchLog struct {
	path    string
	seeded  bool   // seeded and registered in two steps
	seedGen uint64 // the generation a seeded watcher was seeded at
	cancel  func()
	closed  chan struct{}

	mu  sync.Mutex
	got []Notification
}

func (l *watchLog) drain(ch <-chan Notification) {
	for n := range ch {
		l.mu.Lock()
		l.got = append(l.got, n)
		l.mu.Unlock()
	}
	close(l.closed)
}

// waitGen waits until l's last notification is for generation gen.
func (l *watchLog) waitGen(t *testing.T, gen uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		var last uint64
		if len(l.got) > 0 {
			last = l.got[len(l.got)-1].Gen
		}
		l.mu.Unlock()
		if last == gen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: last notification at generation %d, want %d", l.path, last, gen)
		}
	}
}

// startWatch registers path on c and logs it. A seeded watcher is
// seeded and registered in two steps, with pause between them for a
// publish to land in.
func startWatch(t *testing.T, c *Concurrent, path string, seeded bool, pause func()) *watchLog {
	t.Helper()
	l := &watchLog{path: path, seeded: seeded, closed: make(chan struct{})}
	if !seeded {
		ch, cancel, err := c.Watch(path)
		if err != nil {
			t.Error(err)
			return nil
		}
		l.cancel = cancel
		go l.drain(ch)
		return l
	}
	q, err := xpath.Parse(path)
	if err != nil {
		t.Error(err)
		return nil
	}
	w, err := c.seed(q)
	if err != nil {
		t.Error(err)
		return nil
	}
	l.seedGen = w.notified
	pause()
	c.register(w)
	l.cancel = func() { c.cancel(w) }
	go l.drain(w.ch)
	return l
}

// check holds a closed watcher's notifications against the answer
// sizes recorded per generation: each one takes up where the last left
// off, and together they add up to the change between the generation
// the first one starts from and the last one's.
func (l *watchLog) check(t *testing.T, counts map[uint64]map[string]int) {
	t.Helper()
	if len(l.got) == 0 {
		return
	}
	base := l.got[0].Gen - uint64(l.got[0].Batches)
	if l.seeded && base != l.seedGen {
		t.Errorf("%s: first notification %+v does not start at the seed generation %d", l.path, l.got[0], l.seedGen)
	}
	prev, net := base, 0
	for _, n := range l.got {
		if n.Batches < 1 || n.Gen-uint64(n.Batches) != prev {
			t.Errorf("%s: notification %+v does not take up at generation %d", l.path, n, prev)
		}
		if n.Added == 0 && n.Removed == 0 {
			t.Errorf("%s: empty notification %+v", l.path, n)
		}
		if len(n.IDs) != min(n.Added, maxNotifyIDs) {
			t.Errorf("%s: notification %+v lists %d ids", l.path, n, len(n.IDs))
		}
		prev = n.Gen
		net += n.Added - n.Removed
	}
	from, ok1 := counts[base]
	to, ok2 := counts[prev]
	if !ok1 || !ok2 {
		t.Errorf("%s: no recorded answer at generation %d or %d", l.path, base, prev)
		return
	}
	if want := to[l.path] - from[l.path]; net != want {
		t.Errorf("%s: Σ added − removed from generation %d to %d = %d, answers changed by %d", l.path, base, prev, net, want)
	}
}

// TestWatchStorm is the watch differential: writers publish typed
// edits, batches and Updates while watchers register and cancel on
// child/descendant and predicate queries, some of them seeded before a
// publish and registered after it. Every watcher's notifications must add up to
// the change in its answer between the generations they span; each one
// alive at the end must hear about the last publish; and a watcher
// seeded before the only publish, with no other watcher registered,
// must hear about it.
func TestWatchStorm(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	var (
		writeMu sync.Mutex // serializes the writers, so each can record its generation's answers
		counts  = map[uint64]map[string]int{}
	)
	record := func() uint64 {
		gen := c.Generation()
		m := map[string]int{}
		for _, p := range stormPaths {
			n, err := c.Count(p)
			if err != nil {
				t.Error(err)
			}
			m[p] = n
		}
		counts[gen] = m
		return gen
	}
	record()
	twoBooks := func() *xmltree.Node {
		shelf := xmltree.NewElement("shelf")
		shelf.AppendChild(xmltree.NewElement("book"))
		shelf.AppendChild(xmltree.NewElement("book"))
		return shelf
	}
	// publishAll inserts a shelf of two books: every answer grows.
	publishAll := func() uint64 {
		writeMu.Lock()
		defer writeMu.Unlock()
		if _, _, err := c.InsertTree(0, 0, twoBooks()); err != nil {
			t.Error(err)
		}
		return record()
	}
	pick := func(rng *rand.Rand, path string) (int, bool) {
		ids, err := c.QueryString(path)
		if err != nil || len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}

	const writers, watchers, opsEach = 3, 4, 80
	var writing, watching sync.WaitGroup
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(g int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsEach; i++ {
				writeMu.Lock()
				var err error
				shelf, ok := pick(rng, "/library/shelf")
				book, hasBook := pick(rng, "//book")
				switch op := rng.Intn(5); {
				case !ok || op == 0:
					_, _, err = c.InsertTree(0, 0, twoBooks())
				case op == 1:
					_, _, err = c.InsertElement(shelf, 0, "book")
				case op == 2:
					_, err = c.ApplyBatch([]Edit{
						{Op: OpInsertElement, Parent: shelf, Pos: 0, Name: "book"},
						{Op: OpInsertTree, Parent: 0, Pos: 0, Fragment: xmltree.NewElement("shelf")},
						{Op: OpInsertTree, Parent: 0, Pos: 1, Fragment: twoBooks()},
					})
				case op == 3 && hasBook:
					err = c.Update(func(d *Document) error {
						if _, _, err := d.InsertElement(shelf, 0, "book"); err != nil {
							return err
						}
						_, err := d.DeleteSubtree(book)
						return err
					})
				default:
					_, err = c.DeleteSubtree(shelf)
				}
				if err != nil {
					t.Error(err)
				}
				record()
				writeMu.Unlock()
			}
		}(g)
	}
	// Each watcher goroutine churns until the writers are done and keeps
	// its last watcher to the end.
	stop := make(chan struct{})
	var lmu sync.Mutex
	var logs, survivors []*watchLog
	for g := 0; g < watchers; g++ {
		watching.Add(1)
		go func(g int) {
			defer watching.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				l := startWatch(t, c, stormPaths[rng.Intn(len(stormPaths))], rng.Intn(2) == 0, func() {
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				})
				if l == nil {
					return
				}
				lmu.Lock()
				logs = append(logs, l)
				lmu.Unlock()
				select {
				case <-stop:
					lmu.Lock()
					survivors = append(survivors, l)
					lmu.Unlock()
					return
				case <-time.After(time.Duration(rng.Intn(300)) * time.Microsecond):
				}
				l.cancel()
			}
		}(g)
	}
	writing.Wait()
	close(stop)
	watching.Wait()
	if t.Failed() {
		return
	}

	final := publishAll()
	for _, l := range survivors {
		l.waitGen(t, final)
	}
	notes := 0
	for _, l := range logs {
		l.cancel()
		<-l.closed
		l.check(t, counts)
		notes += len(l.got)
	}
	t.Logf("%d watchers, %d of them to the end, %d notifications over %d generations", len(logs), len(survivors), notes, final)
	if got := c.Watchers(); got != 0 {
		t.Fatalf("Watchers() = %d after the storm, want 0", got)
	}

	// The first watcher, seeded before a publish and registered after it.
	for _, path := range stormPaths {
		var gen uint64
		l := startWatch(t, c, path, true, func() { gen = publishAll() })
		l.waitGen(t, gen)
		l.cancel()
		<-l.closed
		if len(l.got) != 1 || l.got[0].Batches != 1 {
			t.Fatalf("%s: notifications %+v, want one for generation %d alone", path, l.got, gen)
		}
		l.check(t, counts)
	}
}

// TestWatchRetentionStorm: writers that publish faster than watchers
// are read make nothing accumulate. Twelve watchers on Hamlet, four on
// each of three queries, through 2 000 back-to-back line inserts: the
// live heap grows by the inserted nodes and the watchers' answers, not
// by the snapshots published meanwhile.
func TestWatchRetentionStorm(t *testing.T) {
	c, err := NewConcurrent(datagen.Hamlet(), containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	speeches, err := c.QueryString("//speech")
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"//speech[./speaker]/line", "/play/act/scene[./speech]/speech", "//line"}
	var drained sync.WaitGroup
	var cancels []func()
	for i := 0; i < 12; i++ {
		ch, cancel, err := c.Watch(paths[i%len(paths)])
		if err != nil {
			t.Fatal(err)
		}
		cancels = append(cancels, cancel)
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range ch {
			}
		}()
	}
	before := liveHeap()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if _, _, err := c.InsertElement(speeches[rng.Intn(len(speeches))], 1, "line"); err != nil {
			t.Fatal(err)
		}
	}
	grown := liveHeap() - before
	for _, cancel := range cancels {
		cancel()
	}
	drained.Wait()
	t.Logf("live heap grew %.1f MB over 2 000 inserts", float64(grown)/(1<<20))
	if grown > 16<<20 {
		t.Fatalf("live heap grew %d bytes over the storm, want under 16 MB", grown)
	}
}

// liveHeap returns the bytes the heap holds after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
