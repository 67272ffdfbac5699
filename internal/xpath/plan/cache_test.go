package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/xpath"
)

// checkBounds asserts the cache invariant storeResult must preserve:
// the entry count and the total cached ids (renderings included, at
// one id per 8 bytes) never exceed the
// construction bounds, and the nIDs accounting matches the map.
func checkBounds(t *testing.T, c *Cache) {
	t.Helper()
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, ent := range c.results {
		total += ent.cost()
	}
	if total != c.nIDs {
		t.Fatalf("nIDs accounting drift: counted %d, recorded %d", total, c.nIDs)
	}
	if len(c.results) > c.maxResults {
		t.Fatalf("%d entries cached, bound is %d", len(c.results), c.maxResults)
	}
	if c.nIDs > c.maxIDs {
		t.Fatalf("%d ids cached, bound is %d", c.nIDs, c.maxIDs)
	}
}

// readsAll is the plan of a query that tests *: its stamp is the
// caller's generation whatever the engine.
var readsAll = &Plan{}

// put stores a result of n ids for (text, gen).
func put(c *Cache, text string, gen uint64, n int) {
	c.storeResult(text, &resultEntry{plan: readsAll, stamp: gen, ids: seqIDs(n)})
}

// held returns what put stored for (text, gen), if it is still served.
func held(c *Cache, text string, gen uint64) *resultEntry {
	return c.lookupResult(new(xpath.Engine), gen, text)
}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestCacheBoundsTinyLimits is the regression test for the oversize
// result-cache leak: storeResult never evicted the entry it had just
// stored, so one result larger than maxIDs was cached permanently,
// pinning the cache over its memory bound — and on its way in it
// evicted every other entry in a futile attempt to make room. An
// oversize result must be refused outright and leave the rest of the
// cache intact.
func TestCacheBoundsTinyLimits(t *testing.T) {
	c := NewCacheBounds(2, 8)

	put(c, "a", 1, 4)
	if held(c, "a", 1) == nil {
		t.Fatal("in-bounds result was not cached")
	}

	// An oversize store must not be admitted and must not wipe "a".
	put(c, "big", 1, 16)
	checkBounds(t, c)
	if held(c, "big", 1) != nil {
		t.Fatal("result larger than maxIDs was cached; the bound is pinned over its budget forever")
	}
	if held(c, "a", 1) == nil {
		t.Fatal("refusing an oversize result evicted an unrelated in-bounds entry")
	}

	// Fill to the brim, then overflow by one entry: eviction trims back
	// inside both bounds without touching the fresh store.
	put(c, "b", 1, 4)
	checkBounds(t, c)
	put(c, "c", 2, 4)
	checkBounds(t, c)
	if held(c, "c", 2) == nil {
		t.Fatal("fresh in-bounds result was evicted in favor of older entries")
	}

	// Overwriting an entry with an oversize result drops the stale
	// entry (the caller just found it so) and refuses the new one.
	put(c, "c", 3, 16)
	checkBounds(t, c)
	if held(c, "c", 2) != nil {
		t.Fatal("stale entry survived an oversize overwrite")
	}
	if held(c, "c", 3) != nil {
		t.Fatal("oversize overwrite was cached")
	}

	// A zero-entry cache refuses everything rather than growing.
	z := NewCacheBounds(0, 8)
	put(z, "a", 1, 1)
	checkBounds(t, z)
	if held(z, "a", 1) != nil {
		t.Fatal("zero-capacity cache admitted an entry")
	}
}

// TestCacheRendered pins the memoised rendering: rendered once per
// entry the cache keeps, the same bytes on every hit, never served at
// another stamp, counted hit for hit and miss for miss like Eval,
// charged to the ids bound and dropped with its entry.
func TestCacheRendered(t *testing.T) {
	eng := testEngine(t, randomNamedDoc(rand.New(rand.NewSource(3)), 80))
	q, err := xpath.Parse("//a")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Eval(q)
	if err != nil || len(want) == 0 {
		t.Fatalf("//a: %d ids, %v", len(want), err)
	}
	renders := 0
	render := func(ids []int) []byte {
		renders++
		return fmt.Appendf(nil, "%d%v", len(ids), ids)
	}
	c := NewCache()
	hits, misses := mResultHits.Value(), mResultMisses.Value()
	first, err := c.Rendered(eng, 1, "//a", render)
	if err != nil || string(first) != string(render(want)) {
		t.Fatalf("miss: %q, %v", first, err)
	}
	renders = 0
	again, err := c.Rendered(eng, 1, "//a", render)
	if err != nil || &again[0] != &first[0] || renders != 0 {
		t.Fatalf("hit rendered %d times and returned other bytes (%v)", renders, err)
	}
	if n, err := c.Count(eng, 1, "//a"); err != nil || n != len(want) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(want))
	}
	if ids, err := c.Eval(eng, 1, q); err != nil || !reflect.DeepEqual(ids, want) {
		t.Fatalf("Eval beside a rendering: %v, %v", ids, err)
	}
	if h, m := mResultHits.Value()-hits, mResultMisses.Value()-misses; h != 3 || m != 1 {
		t.Fatalf("one miss and three hits counted as %v misses, %v hits", m, h)
	}
	if got, want := c.MemoryFootprint(), int64(8*(len(want)+(cap(first)+7)/8)); got != want {
		t.Fatalf("MemoryFootprint = %d, want %d", got, want)
	}
	checkBounds(t, c)
	// Another generation: the rendering of generation 1 is not served.
	next, err := c.Rendered(eng, 2, "//a", render)
	if err != nil || renders != 1 || &next[0] == &first[0] {
		t.Fatalf("generation 2 was served generation 1's rendering (%d renders, %v)", renders, err)
	}
	checkBounds(t, c)
	// A path that does not parse is an error and neither hit nor miss;
	// Count on a hit allocates nothing.
	hits, misses = mResultHits.Value(), mResultMisses.Value()
	if _, err := c.Rendered(eng, 2, "///", render); err == nil {
		t.Fatal("bad path rendered")
	}
	if _, err := c.Count(eng, 2, "///"); err == nil {
		t.Fatal("bad path counted")
	}
	if mResultHits.Value() != hits || mResultMisses.Value() != misses {
		t.Fatal("a parse error moved the result-cache counters")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = c.Count(eng, 2, "//a") }); allocs != 0 {
		t.Fatalf("Count on a hit allocates %v times", allocs)
	}
	// Explain replaces the entry; the rendering goes with it.
	if _, err := c.Explain(eng, 2, q); err != nil {
		t.Fatal(err)
	}
	checkBounds(t, c)
	renders = 0
	if _, err := c.Rendered(eng, 2, "//a", render); err != nil || renders != 1 {
		t.Fatalf("after Explain replaced the entry: %d renders, %v", renders, err)
	}

	// Bounds. 16 ids of room: a 4-id result with a 32-byte rendering
	// costs 8, so a third such entry evicts; a rendering that would put
	// its own entry over the bound is returned but not kept.
	tiny := NewCacheBounds(4, 16)
	for _, text := range []string{"//a[1]", "//a[2]", "//a[3]"} {
		put(tiny, text, 1, 4)
		if _, err := tiny.Rendered(eng, 1, text, func([]int) []byte { return make([]byte, 32) }); err != nil {
			t.Fatal(err)
		}
		checkBounds(t, tiny)
	}
	if ent := held(tiny, "//a[3]", 1); ent == nil || ent.rendered == nil || tiny.MemoryFootprint() != 16*8 {
		t.Fatalf("the fresh rendering was not kept, or nothing was evicted for it (%d B held)", tiny.MemoryFootprint())
	}
	tiny = NewCacheBounds(4, 16)
	put(tiny, "q", 1, 4)
	renders = 0
	for i := 1; i <= 2; i++ {
		b, err := tiny.Rendered(eng, 1, "q", func([]int) []byte { renders++; return make([]byte, 8*13) })
		if err != nil || len(b) != 8*13 || renders != i || held(tiny, "q", 1) == nil {
			t.Fatalf("oversize rendering, call %d: %d bytes, %d renders, %v; result kept: %v",
				i, len(b), renders, err, held(tiny, "q", 1) != nil)
		}
		checkBounds(t, tiny)
	}
}
