package pagestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func newTestPager(t testing.TB, cachePages int) *Pager {
	t.Helper()
	pf, err := Create(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, cachePages)
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// checkCachedNodes encodes every resident node and requires what the
// invariants build checks on each writeback: size is the encoded
// payload length and the page decodes back to the node.
func checkCachedNodes(t *testing.T, p *Pager) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	buf := make([]byte, PageSize)
	for id, e := range p.cache {
		if err := encodeNode(e.node, id, buf); err != nil {
			t.Fatal(err)
		}
		if err := checkEncoding(e.node, buf); err != nil {
			t.Fatal(err)
		}
		if e.bytes != e.node.heapBytes() {
			t.Fatalf("page %d charged %d B, node holds %d", id, e.bytes, e.node.heapBytes())
		}
	}
}

// TestWarmLeafEditAllocs pins what an edit of an owned, resident leaf
// costs: the key copy, and nothing the size of a page — no node clone,
// no encode buffer.
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
	const runs = 200
	var before, after runtime.MemStats
	edit() // the first insert may grow the leaf's slices; later ones reuse the room
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, edit)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("insert+delete on a warm owned leaf: %.0f allocs, %d B", allocs, perRun)
	if allocs > 2 {
		t.Errorf("insert+delete allocates %.0f times, want <= 2", allocs)
	}
	if perRun >= PageSize/8 {
		t.Errorf("insert+delete allocates %d B: something page-sized is being copied", perRun)
	}
	if got := p.Stats().Allocated; got != pages {
		t.Errorf("in-place edits allocated %d new pages", got-pages)
	}
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

// TestCachedNodesMatchTheirEncoding is the property behind
// encode-at-writeback: after any seeded run of inserts, deletes (down
// to emptied and unlinked pages), splits, clones and seals through a
// minimum cache, every resident node's size is its encoded payload
// length and encode/decode is the identity on it.
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
// encode — a page the writer is changing. One writer edits owned pages
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

// TestFlushIsDeterministic: Flush writes dirty pages in page-id order
// and every page is encoded into a fully overwritten buffer, so the
// file's bytes are a function of the edit history.
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
				if err := p.Flush([2]uint32{tr.Root(), 0}, [2]uint64{uint64(tr.Count()), 0}); err != nil {
					t.Fatal(err)
				}
				tr.Sealed()
			}
		}
		if err := p.Flush([2]uint32{tr.Root(), 0}, [2]uint64{uint64(tr.Count()), 0}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p.file.Path())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical histories left different page files (%d and %d bytes)", len(a), len(b))
	}
	if len(a) <= PageSize {
		t.Fatal("the flushed file holds no data pages")
	}
}
