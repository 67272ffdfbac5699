package pagestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func newTestPager(t testing.TB, cachePages int) *Pager {
	t.Helper()
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, cachePages)
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// checkCachedNodes writes every dirty page back and requires of every
// resident frame what the invariants build checks on each writeback — a
// well-formed slotted page with ascending keys — and that the file now
// holds it byte for byte: the frame is the page.
func checkCachedNodes(t *testing.T, p *Pager) {
	t.Helper()
	if err := writeBackAll(p); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	onDisk := make([]byte, PageSize)
	for id, e := range p.cache {
		if err := checkPage(e.node); err != nil {
			t.Fatal(err)
		}
		if e.dirty || e.node.id() != id {
			t.Fatalf("page %d: dirty %v after writeback, frame stamped %d", id, e.dirty, e.node.id())
		}
		if err := p.file.ReadPage(id, onDisk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, e.node[:]) {
			t.Fatalf("page %d: the file's bytes differ from the resident frame", id)
		}
	}
}

// TestWarmLeafEditAllocs pins what an edit of an owned, resident leaf
// costs: nothing. The key is copied into the frame, not onto the heap,
// and nothing the size of a page is cloned or encoded.
func TestWarmLeafEditAllocs(t *testing.T) {
	p := newTestPager(t, 64)
	tr := NewTree(p)
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "key-%06d", i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	pages := p.Stats().Allocated
	key := []byte("key-001000-x")
	edit := func() {
		if err := tr.Insert(key, 7); err != nil {
			t.Fatal(err)
		}
		if ok, err := tr.Delete(key); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
	}
	const runs = 2000 // enough to fill the leaf's heap with dead entries and compact it
	var before, after runtime.MemStats
	var allocs float64
	singleP(func() {
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, edit)
		runtime.ReadMemStats(&after)
	})
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("insert+delete on a warm owned leaf: %.0f allocs, %d B", allocs, perRun)
	if allocs > 0 || perRun > 0 {
		t.Errorf("insert+delete allocates %.0f times, %d B, want 0", allocs, perRun)
	}
	if got := p.Stats().Allocated; got != pages {
		t.Errorf("in-place edits allocated %d new pages", got-pages)
	}
}

// singleP runs f with GOMAXPROCS at 1, as testing.AllocsPerRun counts
// allocations: a TotalAlloc difference taken inside f then counts
// another goroutine's bytes only if f blocks or is preempted, where
// under -race in a whole-module run it read 2 B now and then.
func singleP(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// TestFaultAllocatesOneFrame pins a cache miss: one 4 KB frame the page
// is read straight into, one cache entry, and no decoded copy.
func TestFaultAllocatesOneFrame(t *testing.T) {
	p := newTestPager(t, MinCachePages)
	tr := NewTree(p)
	const n = 20000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "key-%06d", i)
		if err := tr.Insert(keys[i], uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	get := func() {
		if v, ok, err := tr.Get(keys[i%n]); err != nil || !ok || v != uint32(i%n) {
			t.Fatalf("get %d: %d %v %v", i%n, v, ok, err)
		}
		i += 997 // a stride wider than a leaf: every Get lands on a cold one
	}
	const runs = 2000
	var before, after runtime.MemStats
	var allocs float64
	missesBefore := p.Stats().Misses
	singleP(func() {
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, get)
		runtime.ReadMemStats(&after)
	})
	misses := p.Stats().Misses - missesBefore
	if misses < runs {
		t.Fatalf("%d cold gets missed %d times: the test does not fault", runs, misses)
	}
	perMiss := (after.TotalAlloc - before.TotalAlloc) / misses
	t.Logf("%d misses: %.0f allocs, %d B per miss", misses, allocs, perMiss)
	if allocs > 2 || perMiss > PageSize+256 {
		t.Errorf("a fault allocates %.0f times, %d B, want <= 2 and <= %d", allocs, perMiss, PageSize+256)
	}
}

// TestPageReclaimsDeadSpace: deletes leave dead bytes in a page's heap
// and an insert that needs them compacts the page — so a leaf whose
// live bytes stay under half the payload never splits, however many
// entries pass through it.
func TestPageReclaimsDeadSpace(t *testing.T) {
	p := newTestPager(t, MinCachePages)
	tr := NewTree(p)
	rng := rand.New(rand.NewSource(5))
	oracle := map[string]uint32{}
	var held []string
	live := 0
	for op := 0; op < 10000; op++ {
		k := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 1+rng.Intn(200))
		k = fmt.Appendf(k, "%d", op) // distinct
		if need := len(k) + entryOverhead; live+need <= PayloadSize/2 {
			if err := tr.Insert(k, uint32(op)); err != nil {
				t.Fatal(err)
			}
			oracle[string(k)], held, live = uint32(op), append(held, string(k)), live+need
			continue
		}
		j := rng.Intn(len(held))
		k = []byte(held[j])
		if ok, err := tr.Delete(k); err != nil || !ok {
			t.Fatalf("op %d: delete: %v %v", op, ok, err)
		}
		held[j] = held[len(held)-1]
		held = held[:len(held)-1]
		delete(oracle, string(k))
		live -= len(k) + entryOverhead
	}
	if got := p.Stats().Allocated; got != 1 {
		t.Fatalf("a leaf that never held more than half a payload of live bytes split: %d pages", got)
	}
	seen := 0
	if err := tr.Scan(func(k []byte, v uint32) bool {
		if want, ok := oracle[string(k)]; !ok || want != v {
			t.Errorf("leaf holds %q=%d, oracle %d (present %v)", k, v, want, ok)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(oracle) || tr.Count() != len(oracle) {
		t.Fatalf("scan %d, count %d, oracle %d", seen, tr.Count(), len(oracle))
	}
	checkCachedNodes(t, p)
}

// TestCopyOnWriteOncePerSnapshot: after Clone the first edit copies its
// root-to-leaf path into fresh pages; further edits under the same leaf
// change those in place.
func TestCopyOnWriteOncePerSnapshot(t *testing.T) {
	p := newTestPager(t, 64)
	tr := NewTree(p)
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "key-%06d", i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Clone()
	base := p.Stats().Allocated
	for i := 0; i < 10; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "key-001000-%d", i), 1); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if got := p.Stats().Allocated - base; got < 2 {
				t.Fatalf("first edit after Clone copied %d pages, want the whole path", got)
			}
			base = p.Stats().Allocated
		}
	}
	if got := p.Stats().Allocated - base; got != 0 {
		t.Fatalf("edits 2..10 after Clone allocated %d pages, want 0", got)
	}
	if snap.Count() != 2000 {
		t.Fatalf("snapshot count %d", snap.Count())
	}
	seen := 0
	if err := snap.Scan(func(k []byte, v uint32) bool {
		if len(k) != len("key-000000") {
			t.Errorf("snapshot sees the writer's later key %q", k)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 2000 {
		t.Fatalf("snapshot scan saw %d entries, want 2000", seen)
	}
}

// TestCachedNodesMatchTheirEncoding is the property behind caching the
// page itself: after any seeded run of inserts, deletes (down to
// emptied and unlinked pages), splits, compactions, clones and seals
// through a minimum cache, every resident frame is a well-formed page
// and, once flushed, byte-equal to what the file holds.
func TestCachedNodesMatchTheirEncoding(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTestPager(t, MinCachePages)
		tr := NewTree(p)
		oracle := map[string]uint32{}
		var snaps []*Tree
		var snapCounts []int
		for op := 0; op < 5000; op++ {
			i := rng.Intn(1200)
			k := fmt.Appendf(nil, "%0*d", 3+i%40, i)
			if rng.Intn(5) < 3 {
				v := rng.Uint32()
				if err := tr.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				oracle[string(k)] = v
			} else {
				if _, err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(oracle, string(k))
			}
			switch {
			case op%977 == 0:
				snaps, snapCounts = append(snaps, tr.Clone()), append(snapCounts, tr.Count())
			case op%613 == 0:
				tr.Sealed()
			case op%250 == 0:
				checkCachedNodes(t, p)
			}
		}
		checkCachedNodes(t, p)
		got := map[string]uint32{}
		if err := tr.Scan(func(k []byte, v uint32) bool { got[string(k)] = v; return true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(oracle) || tr.Count() != len(oracle) {
			t.Fatalf("seed %d: scan %d entries, count %d, oracle %d", seed, len(got), tr.Count(), len(oracle))
		}
		for k, v := range oracle {
			if got[k] != v {
				t.Fatalf("seed %d: %q = %d, oracle %d", seed, k, got[k], v)
			}
		}
		for i, s := range snaps {
			seen := 0
			if err := s.Scan(func([]byte, uint32) bool { seen++; return true }); err != nil {
				t.Fatal(err)
			}
			if seen != snapCounts[i] {
				t.Fatalf("seed %d: snapshot %d scans %d entries, held %d when cloned", seed, i, seen, snapCounts[i])
			}
		}
	}
}

// TestInPlaceVsCloneRace runs the one hazard in-place mutation adds:
// clones share the writer's pager, so a reader's fault can evict — and
// seal — a page the writer is changing. One writer edits owned pages
// through a minimum cache while four clones cold-scan; every clone must
// see exactly its snapshot and the writer's tree must match a map
// oracle. Meaningful under -race.
func TestInPlaceVsCloneRace(t *testing.T) {
	p := newTestPager(t, MinCachePages)
	tr := NewTree(p)
	oracle := map[string]uint32{}
	put := func(i int, v uint32) {
		k := fmt.Appendf(nil, "key-%06d", i)
		if err := tr.Insert(k, v); err != nil {
			t.Error(err)
		}
		oracle[string(k)] = v
	}
	for i := 0; i < 3000; i++ {
		put(i, uint32(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		put(3000+g, 0) // each clone freezes a different state
		snap := tr.Clone()
		want := make([]string, 0, len(oracle))
		for k := range oracle {
			want = append(want, k)
		}
		sort.Strings(want)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				i := 0
				err := snap.Scan(func(k []byte, v uint32) bool {
					if i >= len(want) || string(k) != want[i] {
						t.Errorf("clone entry %d is %q, not its snapshot's", i, k)
						return false
					}
					i++
					return true
				})
				if err != nil || i != len(want) {
					t.Errorf("clone scan: %d of %d entries, err %v", i, len(want), err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 4000; op++ {
		i := rng.Intn(3500)
		if rng.Intn(3) > 0 {
			put(i, rng.Uint32())
			continue
		}
		k := fmt.Appendf(nil, "key-%06d", i)
		if _, err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(oracle, string(k))
	}
	wg.Wait()
	seen := 0
	if err := tr.Scan(func(k []byte, v uint32) bool {
		if want, ok := oracle[string(k)]; !ok || want != v {
			t.Errorf("writer holds %q=%d, oracle %d (present %v)", k, v, want, ok)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(oracle) || tr.Count() != len(oracle) {
		t.Fatalf("writer scan %d, count %d, oracle %d", seen, tr.Count(), len(oracle))
	}
}

// TestFlushIsDeterministic: a frame's bytes — free space included —
// depend only on the operations applied to it (compaction is triggered
// by an insert, never by eviction), so with every dirty page written
// back in page-id order the file's bytes are a function of the edit
// history.
func TestFlushIsDeterministic(t *testing.T) {
	run := func() []byte {
		p := newTestPager(t, MinCachePages)
		tr := NewTree(p)
		rng := rand.New(rand.NewSource(9))
		for op := 0; op < 4000; op++ {
			k := fmt.Appendf(nil, "%0*d", 4+op%9, rng.Intn(2500))
			if rng.Intn(4) == 0 {
				if _, err := tr.Delete(k); err != nil {
					t.Fatal(err)
				}
			} else if err := tr.Insert(k, uint32(op)); err != nil {
				t.Fatal(err)
			}
			if op%1500 == 1499 {
				if err := writeBackAll(p); err != nil {
					t.Fatal(err)
				}
				tr.Sealed()
			}
		}
		if err := writeBackAll(p); err != nil {
			t.Fatal(err)
		}
		return fileBytes(t, p)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical histories left different page files (%d and %d bytes)", len(a), len(b))
	}
	if len(a) <= PageSize {
		t.Fatal("the written-back file holds no data pages")
	}
}
