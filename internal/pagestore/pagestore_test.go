package pagestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestPageWriteReadVerify(t *testing.T) {
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]byte, PageSize)
	copy(buf[HeaderSize:], "hello pages")
	sealPage(buf, 1, PageLeaf, 0, 11)
	if err := pf.WritePage(buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := pf.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	if pl := got[HeaderSize : HeaderSize+11]; string(pl) != "hello pages" {
		t.Fatalf("payload %q", pl)
	}
	// Reading it back under the wrong id must fail verification.
	if err := pf.ReadPage(2, got); err == nil {
		t.Fatal("page read under wrong id verified")
	}
}

func TestPagerEvictionWritebackAndReread(t *testing.T) {
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, MinCachePages)
	defer p.Close()
	// Fill well past the cache budget with dirty pages.
	const n = 64
	for i := 0; i < n; i++ {
		p.mu.Lock()
		n := newNode(PageLeaf)
		n.put(0, fmt.Appendf(nil, "page-%d", p.next), p.next)
		_, err := p.newPageLocked(n)
		p.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Resident > MinCachePages {
		t.Fatalf("resident %d exceeds cache budget %d", st.Resident, MinCachePages)
	}
	if st.Writebacks == 0 {
		t.Fatal("eviction past budget produced no writebacks")
	}
	// Every page — including the evicted ones — reads back intact.
	for id := uint32(1); id <= n; id++ {
		nd, err := p.node(id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		want := fmt.Sprintf("page-%d", id)
		if nd.count() != 1 || string(nd.key(0)) != want || nd.val(0) != id {
			t.Fatalf("page %d holds %q, want %q", id, nd.key(0), want)
		}
	}
	if st := p.Stats(); st.Misses == 0 {
		t.Fatal("cold rereads recorded no cache misses")
	}
}

func TestTreeCloneIsolation(t *testing.T) {
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, 64)
	defer p.Close()
	tr := NewTree(p)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "k%04d", i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Clone()
	// The writer keeps mutating; pages reachable from snap's root must
	// be untouched because the writer no longer owns them.
	tr.Sealed()
	for i := 0; i < 500; i += 2 {
		if _, err := tr.Delete(fmt.Appendf(nil, "k%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 500; i < 600; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "k%04d", i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Count() != 500 {
		t.Fatalf("snapshot count %d", snap.Count())
	}
	for i := 0; i < 500; i++ {
		v, ok, err := snap.Get(fmt.Appendf(nil, "k%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != uint32(i) {
			t.Fatalf("snapshot lost k%04d (got %d ok=%v)", i, v, ok)
		}
	}
	if _, ok, _ := tr.Get([]byte("k0000")); ok {
		t.Fatal("writer still sees deleted key")
	}
}

// TestTreeDifferential drives random inserts, deletes, point gets and
// scans against a sorted-map oracle — the pagestore counterpart of the
// slice-vs-paged differential at the store layer.
func TestTreeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A tiny cache forces constant eviction/reread during the run.
	p := NewPager(pf, MinCachePages)
	defer p.Close()
	tr := NewTree(p)
	oracle := map[string]uint32{}
	keyFor := func(i int) []byte {
		// Variable-length keys exercise split size accounting.
		return fmt.Appendf(nil, "%0*d", 4+i%13, i)
	}
	const ops = 6000
	for op := 0; op < ops; op++ {
		i := rng.Intn(1500)
		k := keyFor(i)
		switch rng.Intn(3) {
		case 0, 1:
			v := uint32(rng.Intn(1 << 20))
			if err := tr.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			oracle[string(k)] = v
		case 2:
			removed, err := tr.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			_, want := oracle[string(k)]
			if removed != want {
				t.Fatalf("op %d: delete %q removed=%v oracle=%v", op, k, removed, want)
			}
			delete(oracle, string(k))
		}
		if op%500 == 0 {
			tr.Sealed() // exercise the path-copy side too
		}
	}
	if tr.Count() != len(oracle) {
		t.Fatalf("count %d, oracle %d", tr.Count(), len(oracle))
	}
	for k, want := range oracle {
		v, ok, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != want {
			t.Fatalf("get %q = %d ok=%v, want %d", k, v, ok, want)
		}
	}
	seen := 0
	prev := ""
	if err := tr.Scan(func(k []byte, v uint32) bool {
		if prev != "" && prev >= string(k) {
			t.Fatalf("scan order violation at %q", k)
		}
		prev = string(k)
		if want, ok := oracle[prev]; !ok || v != want {
			t.Fatalf("scan saw %q=%d, oracle %d (present %v)", k, v, want, ok)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(oracle) {
		t.Fatalf("scan visited %d, oracle holds %d", seen, len(oracle))
	}
}

// TestTreeInternalSplitScan pushes the tree well past the internal-node
// split threshold and checks a full scan visits every entry exactly
// once in strict key order: a split that leaves a child reachable from
// both halves shows up here as duplicate visits and order violations.
// Wide keys keep the fan-out small so a few thousand inserts build and
// repeatedly split several internal levels.
func TestTreeInternalSplitScan(t *testing.T) {
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, 64)
	defer p.Close()
	tr := NewTree(p)
	pad := strings.Repeat("x", 480)
	keyFor := func(i int) []byte { return fmt.Appendf(nil, "key-%06d-%s", i, pad) }
	const n = 4000
	rng := rand.New(rand.NewSource(7))
	for _, i := range rng.Perm(n) {
		if err := tr.Insert(keyFor(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != n {
		t.Fatalf("count %d, want %d", tr.Count(), n)
	}
	seen := 0
	prev := []byte(nil)
	if err := tr.Scan(func(k []byte, v uint32) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan order violation at entry %d: %q after %q", seen, k[:10], prev[:10])
		}
		prev = append(prev[:0], k...)
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scan visited %d entries, want %d (duplicated or lost subtrees)", seen, n)
	}
	for i := 0; i < n; i += 131 {
		v, ok, err := tr.Get(keyFor(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != uint32(i) {
			t.Fatalf("key %d: got %d ok=%v", i, v, ok)
		}
	}
	// Deletes across the whole range must keep the scan consistent too.
	for i := 0; i < n; i += 3 {
		if removed, err := tr.Delete(keyFor(i)); err != nil || !removed {
			t.Fatalf("delete %d: removed=%v err=%v", i, removed, err)
		}
	}
	seen = 0
	if err := tr.Scan(func(k []byte, v uint32) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != tr.Count() {
		t.Fatalf("post-delete scan visited %d, count %d", seen, tr.Count())
	}
}

// TestTreeSkewedKeySizes mixes keys near MaxKeySize with tiny ones so a
// count-based split would pack nearly all the bytes into one half and
// overflow a page; the byte-balanced split must keep every node
// encodable, and every entry must stay retrievable.
func TestTreeSkewedKeySizes(t *testing.T) {
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, 64)
	defer p.Close()
	tr := NewTree(p)
	rng := rand.New(rand.NewSource(11))
	oracle := map[string]uint32{}
	for i := 0; i < 3000; i++ {
		var k []byte
		if rng.Intn(2) == 0 {
			k = fmt.Appendf(nil, "t%04d", rng.Intn(2000))
		} else {
			pad := strings.Repeat("y", MaxKeySize-6-rng.Intn(24))
			k = fmt.Appendf(nil, "h%04d-%s", rng.Intn(2000), pad)
		}
		v := uint32(rng.Intn(1 << 20))
		if err := tr.Insert(k, v); err != nil {
			t.Fatalf("insert %d (%d-byte key): %v", i, len(k), err)
		}
		oracle[string(k)] = v
	}
	if tr.Count() != len(oracle) {
		t.Fatalf("count %d, oracle %d", tr.Count(), len(oracle))
	}
	for k, want := range oracle {
		v, ok, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != want {
			t.Fatalf("get %d-byte key = %d ok=%v, want %d", len(k), v, ok, want)
		}
	}
	seen := 0
	if err := tr.Scan(func(k []byte, v uint32) bool { seen++; return true }); err != nil {
		t.Fatal(err)
	}
	if seen != len(oracle) {
		t.Fatalf("scan visited %d, oracle holds %d", seen, len(oracle))
	}
}

// TestCloneConcurrentColdReads exercises the documented guarantee that
// distinct clones sharing one pager may be read concurrently: several
// clones scan through a minimum-size cache — constantly faulting the
// same cold pages back in — while the
// writer keeps inserting. Run under -race this catches unsynchronized
// sharing on the pager's cache entries.
func TestCloneConcurrentColdReads(t *testing.T) {
	p := newTestPager(t, MinCachePages)
	tr := NewTree(p)
	for i := 0; i < coldReadKeys; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "key-%06d", i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	coldReadStorm(t, p, tr)
}

// TestLoadedCloneColdReads is the same storm over a tree Load built,
// whose pages were all full and all owned by the tree until it was
// cloned.
func TestLoadedCloneColdReads(t *testing.T) {
	p := newTestPager(t, MinCachePages)
	tr := NewTree(p)
	if err := tr.Load(func(yield func([]byte, uint32) bool) error {
		for i := 0; i < coldReadKeys; i++ {
			if !yield(fmt.Appendf(nil, "key-%06d", i), uint32(i)) {
				break
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	coldReadStorm(t, p, tr)
}

// coldReadKeys is how many keys a cold-read storm's tree starts with.
const coldReadKeys = 3000

// coldReadStorm has four clones of tr scan it five times each while one
// writer inserts 500 more keys into tr.
func coldReadStorm(t *testing.T, p *Pager, tr *Tree) {
	const n = coldReadKeys
	if err := writeBackAll(p); err != nil {
		t.Fatal(err)
	}
	tr.Sealed()
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for g := 0; g < 4; g++ {
		snap := tr.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Repeated scans keep re-faulting evicted pages, so the
			// readers stay overlapped on the same cold entries.
			for pass := 0; pass < 5; pass++ {
				seen := 0
				if err := snap.Scan(func(k []byte, v uint32) bool { seen++; return true }); err != nil {
					errs <- err
					return
				}
				if seen != n {
					errs <- fmt.Errorf("clone scan saw %d entries, want %d", seen, n)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := n; i < n+500; i++ {
			if err := tr.Insert(fmt.Appendf(nil, "key-%06d", i), uint32(i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestScanPrefix(t *testing.T) {
	pf, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, 16)
	defer p.Close()
	tr := NewTree(p)
	for _, name := range []string{"a", "ab", "b"} {
		for i := 0; i < 300; i++ {
			if err := tr.Insert(fmt.Appendf(nil, "%s\x00%06d", name, i), uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := 0
	if err := tr.ScanPrefix([]byte("ab\x00"), func(k []byte, v uint32) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 300 {
		t.Fatalf("prefix scan saw %d entries, want 300", got)
	}
}
