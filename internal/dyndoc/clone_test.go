package dyndoc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/pagestore"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// orderDoc is a tenant document: an order of 100 items with four
// fields each, 501 elements under six names.
func orderDoc() *xmltree.Document {
	order := xmltree.NewElement("order")
	for i := 0; i < 100; i++ {
		item := order.AppendChild(xmltree.NewElement("item"))
		for _, f := range []string{"sku", "qty", "price", "note"} {
			item.AppendChild(xmltree.NewElement(f))
		}
	}
	return &xmltree.Document{Root: order}
}

// namesDoc is a root over k children with k distinct names.
func namesDoc(k int) *xmltree.Document {
	root := xmltree.NewElement("root")
	for i := 0; i < k; i++ {
		root.AppendChild(xmltree.NewElement(fmt.Sprintf("n%d", i)))
	}
	return &xmltree.Document{Root: root}
}

// forked returns doc opened and then edited on three successive clones,
// each under element 1 with a name the document did not hold: what a
// served document looks like after a few edits.
func forked(t testing.TB, doc *xmltree.Document) *Document {
	t.Helper()
	d, err := New(doc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if d, err = d.Clone(); err != nil {
			t.Fatal(err)
		}
		if _, _, err = d.InsertElement(1, 0, "ins"); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// cloneCost is what one Clone of d allocates: objects and bytes.
func cloneCost(t testing.TB, d *Document) (objects float64, bytes uint64) {
	t.Helper()
	clone := func() {
		if _, err := d.Clone(); err != nil {
			t.Fatal(err)
		}
	}
	objects = testing.AllocsPerRun(100, clone)
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		clone()
	}
	runtime.ReadMemStats(&after)
	return objects, (after.TotalAlloc - before.TotalAlloc) / n
}

// TestCloneAllocs pins what a served edit's clone allocates. On the
// forked order document: the document, the labeling and its tree (2),
// the per-name edit tokens, and the slice index with its array of list
// headers, 7 objects and 1 272 B on amd64; 12 and 1 752 B when the
// tokens and the index's lists were maps keyed by name and the index's
// binding three closures. The count does not grow with the names: the
// tokens and list headers are one array each, however many there are.
func TestCloneAllocs(t *testing.T) {
	objects, bytes := cloneCost(t, forked(t, orderDoc()))
	t.Logf("forked order document: %.0f objects, %d B a clone", objects, bytes)
	if objects > 7 || bytes > 1350 {
		t.Errorf("a clone of the order document allocates %.0f objects and %d B, want at most 7 and 1 350", objects, bytes)
	}
	few, _ := cloneCost(t, forked(t, namesDoc(10)))
	many, manyBytes := cloneCost(t, forked(t, namesDoc(1_000)))
	t.Logf("10 names: %.0f objects; 1 000 names: %.0f objects, %d B", few, many, manyBytes)
	if few != many {
		t.Errorf("a clone allocates %.0f objects under 10 names and %.0f under 1 000", few, many)
	}
}

// allTokens is every name's and child list's token in d, as a read set
// spells them.
func allTokens(d *Document) map[string]uint64 {
	out := map[string]uint64{}
	for c := 0; c < d.syms.Len(); c++ {
		name := d.syms.Name(uint32(c))
		out[name], out["/"+name] = d.NameToken(name), d.NameToken("/"+name)
	}
	return out
}

// TestDivergentSiblings: after a fork, sibling A inserts an element
// under a name both hold, then interns a name and inserts one so
// called. The
// older sibling B reads the new name and its child list as born, finds
// no element under it, and keeps every token and id list it had: the
// two share their symbol table and nothing an edit writes. A clone that
// shared its original's tokens or its index's array of lists fails
// here.
func TestDivergentSiblings(t *testing.T) {
	paged := func(b store.Binding) (store.Backend, error) {
		return store.OpenPaged(t.TempDir(), pagestore.MinCachePages, b)
	}
	for _, factory := range []StoreFactory{nil, paged} {
		base, err := NewWithStore(orderDoc(), containment.Build(keys.VCDBS()), factory)
		if err != nil {
			t.Fatal(err)
		}
		backend := base.Store().Name()
		b, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		a, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		tokens, items := allTokens(b), b.Store().IDs("item")
		// The shared name first: a new name could grow A's arrays
		// before A writes them.
		if _, _, err := a.InsertElement(0, 0, "item"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.InsertElement(1, 0, "fresh"); err != nil {
			t.Fatal(err)
		}
		if a.NameToken("fresh") <= a.born || len(a.Store().IDs("fresh")) != 1 {
			t.Fatalf("%s: A's own insert of fresh: token %d (born %d), ids %v",
				backend, a.NameToken("fresh"), a.born, a.Store().IDs("fresh"))
		}
		for _, read := range []string{"fresh", "/fresh"} {
			if got := b.NameToken(read); got != b.born {
				t.Errorf("%s: B's NameToken(%q) = %d, want born %d", backend, read, got, b.born)
			}
		}
		if ids := b.Store().IDs("fresh"); len(ids) != 0 || (backend == "slice" && ids != nil) {
			t.Errorf("%s: B's IDs(fresh) = %#v, want nil", backend, ids)
		}
		for read, was := range tokens {
			if got := b.NameToken(read); got != was {
				t.Errorf("%s: B's NameToken(%q) moved from %d to %d with A's edits", backend, read, was, got)
			}
		}
		if got := b.Store().IDs("item"); !slices.Equal(got, items) {
			t.Errorf("%s: B's item list changed with A's insert: %d ids, had %d", backend, len(got), len(items))
		}
		if err := base.Store().Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDivergentSiblingsRace is TestDivergentSiblings with B read while
// A interns: B's readers ask its tokens and its index while A inserts
// an item and then elements under names no one held. Run it under
// -race.
func TestDivergentSiblingsRace(t *testing.T) {
	base, err := New(orderDoc(), containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	a, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	const names = 200
	tokens := allTokens(b)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := fmt.Sprintf("new%d", i)
				if got := b.NameToken(name); got != b.born {
					t.Errorf("B's NameToken(%q) = %d, want born", name, got)
				}
				if ids := b.Store().IDs(name); ids != nil {
					t.Errorf("B's IDs(%q) = %v", name, ids)
				}
				if got := b.NameToken("/item"); got != tokens["/item"] {
					t.Errorf("B's NameToken(/item) moved to %d", got)
				}
				if n := len(b.Store().IDs("item")); n != 100 {
					t.Errorf("B's IDs(item) holds %d ids, want 100", n)
				}
			}
		}()
	}
	if _, _, err := a.InsertElement(0, 0, "item"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < names; i++ {
		if _, _, err := a.InsertElement(1, 0, fmt.Sprintf("new%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n, err := b.Count("//item"); err != nil || n != 100 {
		t.Errorf("B counts %d items (%v), want 100", n, err)
	}
}
