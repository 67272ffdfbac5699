package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// loadKeys returns n distinct keys in ascending order over a four-letter
// alphabet, so prefixes repeat. Their sizes are skewed: long percent of
// them are long — half of those within 128 bytes of MaxKeySize, the
// size that decides where a split falls, half of any size up to it —
// and the rest run from 1 to 16 bytes.
func loadKeys(rng *rand.Rand, n, long int) [][]byte {
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < n {
		size := 1 + rng.Intn(16)
		switch r := rng.Intn(100); {
		case r < long/2:
			size = MaxKeySize - rng.Intn(128)
		case r < long:
			size = 1 + rng.Intn(MaxKeySize)
		}
		k := make([]byte, size)
		for i := range k {
			k[i] = 'a' + byte(rng.Intn(4))
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// keySource is a Load source over keys, each valued by its index.
func keySource(keys [][]byte) func(yield func([]byte, uint32) bool) error {
	return func(yield func([]byte, uint32) bool) error {
		for i, k := range keys {
			if !yield(k, uint32(i)) {
				break
			}
		}
		return nil
	}
}

// pageLevels returns tr's pages level by level, root first, each level
// left to right.
func pageLevels(t *testing.T, tr *Tree) [][]*node {
	t.Helper()
	if tr.root == 0 {
		return nil
	}
	root, err := tr.pg.node(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	levels := [][]*node{{root}}
	for !levels[len(levels)-1][0].leaf() {
		var next []*node
		for _, n := range levels[len(levels)-1] {
			for i := 0; i < n.count(); i++ {
				c, err := tr.pg.node(n.val(i))
				if err != nil {
					t.Fatal(err)
				}
				next = append(next, c)
			}
		}
		levels = append(levels, next)
	}
	return levels
}

// checkTree requires tr to hold exactly the oracle's entries — by Get,
// by Scan and by ScanPrefix of every one- and two-letter prefix — and
// every page it reaches to pass checkPage.
func checkTree(t *testing.T, tr *Tree, oracle map[string]uint32) {
	t.Helper()
	for _, level := range pageLevels(t, tr) {
		for _, n := range level {
			if err := checkPage(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Count() != len(oracle) {
		t.Fatalf("count %d, oracle %d", tr.Count(), len(oracle))
	}
	want := make([]string, 0, len(oracle))
	for k, v := range oracle {
		want = append(want, k)
		got, ok, err := tr.Get([]byte(k))
		if err != nil || !ok || got != v {
			t.Fatalf("Get(%d-byte key) = %d, %v, %v; want %d", len(k), got, ok, err, v)
		}
		if _, ok := oracle[k[:len(k)-1]]; !ok && len(k) > 1 {
			if _, ok, err := tr.Get([]byte(k[:len(k)-1])); ok || err != nil {
				t.Fatalf("Get of an absent key: %v, %v", ok, err)
			}
		}
	}
	sort.Strings(want)
	prefixes := []string{""}
	for _, a := range "abcd" {
		prefixes = append(prefixes, string(a))
		for _, b := range "abcd" {
			prefixes = append(prefixes, string(a)+string(b))
		}
	}
	for _, prefix := range prefixes {
		var got []string
		if err := tr.ScanPrefix([]byte(prefix), func(k []byte, v uint32) bool {
			if oracle[string(k)] != v {
				t.Fatalf("scan saw value %d, oracle %d", v, oracle[string(k)])
			}
			got = append(got, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		lo := sort.SearchStrings(want, prefix)
		hi := lo
		for hi < len(want) && len(want[hi]) >= len(prefix) && want[hi][:len(prefix)] == prefix {
			hi++
		}
		if !slices.Equal(got, want[lo:hi]) {
			t.Fatalf("ScanPrefix(%q) saw %d keys, oracle holds %d", prefix, len(got), hi-lo)
		}
	}
}

// after returns a key that sorts right after k and before every other
// key over the alphabet, size bytes long (k padded with zero bytes).
func after(k []byte, size int) []byte {
	return append(bytes.Clone(k), make([]byte, size-len(k))...)
}

// subtreeVals appends the values of every entry under page n.
func subtreeVals(t *testing.T, tr *Tree, n *node, dst []uint32) []uint32 {
	for i := 0; i < n.count(); i++ {
		if n.leaf() {
			dst = append(dst, n.val(i))
			continue
		}
		c, err := tr.pg.node(n.val(i))
		if err != nil {
			t.Fatal(err)
		}
		dst = subtreeVals(t, tr, c, dst)
	}
	return dst
}

// TestLoadedLeafSplitStepsDown splits a leaf Load filled to the byte
// whose byte midpoint falls just inside a key of nearly MaxKeySize
// bytes, with a MaxKeySize key at slot 1: a left half ending after that
// key would overflow, so the split boundary steps one entry down.
func TestLoadedLeafSplitStepsDown(t *testing.T) {
	key := func(i, size int) []byte {
		return append(fmt.Appendf(nil, "%04d", i), bytes.Repeat([]byte{'x'}, size-4)...)
	}
	var keys [][]byte
	for i := 0; i < 118; i++ {
		keys = append(keys, key(i, 10)) // 118 entries of 17 bytes
	}
	keys = append(keys,
		key(118, 17),   // and one of 24: 2 030 bytes, just under half the page
		key(119, 1020), // 1 027 bytes: the half ends inside this entry
		key(120, 1012), // 1 019 bytes: the page is full to the byte
		key(121, 10))   // the next leaf's first
	oracle := map[string]uint32{}
	for i, k := range keys {
		oracle[string(k)] = uint32(i)
	}
	tr := NewTree(newTestPager(t, MinCachePages))
	if err := tr.Load(keySource(keys)); err != nil {
		t.Fatal(err)
	}
	if leaf := pageLevels(t, tr)[1][0]; leaf.count() != 121 || leaf.live() != PayloadSize {
		t.Fatalf("the first leaf holds %d entries in %d bytes, want 121 in %d", leaf.count(), leaf.live(), PayloadSize)
	}
	k := after(keys[0], MaxKeySize)
	if err := tr.Insert(k, 1000); err != nil {
		t.Fatal(err)
	}
	oracle[string(k)] = 1000
	checkTree(t, tr, oracle)
}

// TestFullLeafChurnSplits deletes and re-inserts keys of a leaf Load
// filled to the byte. Compacting would find only the deleted entry's
// bytes free, and would repeat on every insert; the first insert splits
// the leaf instead, and the churn goes on in its halves without another
// split.
func TestFullLeafChurnSplits(t *testing.T) {
	var keys [][]byte
	for i := 0; i < 1000; i++ {
		keys = append(keys, fmt.Appendf(nil, "key-%06d", i))
	}
	p := newTestPager(t, MinCachePages)
	tr := NewTree(p)
	if err := tr.Load(keySource(keys)); err != nil {
		t.Fatal(err)
	}
	first := pageLevels(t, tr)[1][0]
	if free := PayloadSize - first.live(); free >= len(keys[0])+entryOverhead {
		t.Fatalf("the first leaf has %d bytes free: not full", free)
	}
	loaded, n := p.Stats().Allocated, first.count()
	for i := 0; i < 2000; i++ {
		k := keys[i%n]
		if ok, err := tr.Delete(k); !ok || err != nil {
			t.Fatalf("Delete: %v, %v", ok, err)
		}
		if err := tr.Insert(k, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().Allocated - loaded; got != 1 {
		t.Fatalf("churn in one full leaf allocated %d pages, want 1 (one split)", got)
	}
	oracle := map[string]uint32{}
	for i, k := range keys {
		oracle[string(k)] = uint32(i)
	}
	for i := 0; i < 2000; i++ {
		oracle[string(keys[i%n])] = uint32(i)
	}
	checkTree(t, tr, oracle)
}

// FuzzTreeLoad checks Load against Insert and then edits the pages only
// Load fills to the byte. A tree loaded from random ascending keys of
// skewed sizes and one built from the same keys inserted in random order
// must both hold exactly those keys. Then, in a fresh loaded tree,
// inserts land at the first, middle and last slot of every full leaf
// and, by splitting a child, of every full internal page; in another,
// deletes take the first, middle and last slot of every full leaf and
// empty the first, middle and last child of every full internal page.
// Every page — all but the rightmost of each level — is full, since
// Load closed it only when the next entry did not fit. Out-of-order or
// repeated input, a source's error and a non-empty tree are refused and
// leave the tree as it was.
func FuzzTreeLoad(f *testing.F) {
	f.Add(int64(1), uint16(1), uint8(0))
	f.Add(int64(2), uint16(700), uint8(0))
	f.Add(int64(3), uint16(1200), uint8(30))
	f.Add(int64(4), uint16(3000), uint8(60))
	f.Add(int64(5), uint16(1000), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, long uint8) {
		rng := rand.New(rand.NewSource(seed))
		keys := loadKeys(rng, 1+int(n)%4000, int(long)%101)
		oracle := map[string]uint32{}
		for i, k := range keys {
			oracle[string(k)] = uint32(i)
		}
		pg := newTestPager(t, MinCachePages)
		load := func() *Tree {
			tr := NewTree(pg)
			if err := tr.Load(keySource(keys)); err != nil {
				t.Fatal(err)
			}
			return tr
		}
		loaded, inserted := load(), NewTree(newTestPager(t, MinCachePages))
		for _, i := range rng.Perm(len(keys)) {
			if err := inserted.Insert(keys[i], uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		checkTree(t, loaded, oracle)
		checkTree(t, inserted, oracle)

		// Edits, each pass on a fresh load so that what it edits is full.
		// slot picks the first, middle or last slot of a page.
		slot := func(p *node, pos int) int { return []int{0, p.count() / 2, p.count() - 1}[pos] }
		for pos := 0; pos < 3; pos++ {
			// Inserts, one level at a time: after slot s of every full
			// leaf, or in an internal page after the first key under
			// child s, whose leaf splits and sends the page a separator.
			// A key of MaxKeySize bytes splits any full leaf: the entry
			// that did not fit there was no larger.
			for depth := range pageLevels(t, loaded) {
				tr, want := load(), maps.Clone(oracle)
				level := pageLevels(t, tr)[depth]
				var add [][]byte
				for _, p := range level[:len(level)-1] {
					c, s := p, slot(p, pos)
					for !c.leaf() { // child s's leftmost leaf
						var err error
						if c, err = tr.pg.node(c.val(s)); err != nil {
							t.Fatal(err)
						}
						s = 0
					}
					if k := keys[c.val(s)]; len(k) < MaxKeySize {
						add = append(add, after(k, MaxKeySize))
					}
				}
				for i, k := range add {
					if err := tr.Insert(k, uint32(len(keys)+i)); err != nil {
						t.Fatal(err)
					}
					want[string(k)] = uint32(len(keys) + i)
				}
				checkTree(t, tr, want)
			}

			// Deletes: slot s of every full leaf, and every entry under
			// child s of every full internal page, which unlinks it.
			tr, want := load(), maps.Clone(oracle)
			var doomed []uint32
			for _, level := range pageLevels(t, tr) {
				for _, p := range level[:len(level)-1] {
					if p.leaf() {
						doomed = append(doomed, p.val(slot(p, pos)))
						continue
					}
					c, err := tr.pg.node(p.val(slot(p, pos)))
					if err != nil {
						t.Fatal(err)
					}
					doomed = subtreeVals(t, tr, c, doomed)
				}
			}
			for _, v := range doomed {
				_, present := want[string(keys[v])]
				removed, err := tr.Delete(keys[v])
				if err != nil || removed != present {
					t.Fatalf("Delete: removed %v, %v; want %v", removed, err, present)
				}
				delete(want, string(keys[v]))
			}
			checkTree(t, tr, want)
		}
		checkCachedNodes(t, pg)

		// Refusals.
		if err := loaded.Load(keySource(keys)); err == nil {
			t.Fatal("Load into a non-empty tree succeeded")
		}
		checkTree(t, loaded, oracle)
		errSource := errors.New("source failed")
		bad := map[string]func(yield func([]byte, uint32) bool) error{
			"failing source": func(yield func([]byte, uint32) bool) error {
				_ = keySource(keys)(yield)
				return errSource
			},
		}
		if len(keys) > 1 {
			i := rng.Intn(len(keys) - 1)
			swapped := slices.Clone(keys)
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			bad["unsorted"] = keySource(swapped)
			bad["repeated"] = keySource(slices.Insert(slices.Clone(keys), i, keys[i]))
		}
		for name, src := range bad {
			tr := NewTree(pg)
			if err := tr.Load(src); err == nil || name == "failing source" && !errors.Is(err, errSource) {
				t.Fatalf("%s: Load returned %v", name, err)
			}
			checkTree(t, tr, nil)
			if err := tr.Load(keySource(keys)); err != nil {
				t.Fatalf("%s: Load after the refusal: %v", name, err)
			}
			checkTree(t, tr, oracle)
		}
	})
}
