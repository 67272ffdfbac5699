package dyndoc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/containment"
	"repro/internal/datagen"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// sizedDoc builds a three-level document of exactly elems elements:
// a root, sections of up to 50 items each.
func sizedDoc(elems int) *xmltree.Document {
	root := xmltree.NewElement("root")
	var sec *xmltree.Node
	for n := 1; n < elems; n++ {
		if sec == nil || len(sec.Children) == 50 {
			sec = root.AppendChild(xmltree.NewElement("section"))
			continue
		}
		sec.AppendChild(xmltree.NewElement("item"))
	}
	return &xmltree.Document{Root: root}
}

func sizedConcurrent(tb testing.TB, elems int) *Concurrent {
	tb.Helper()
	c, err := NewConcurrent(sizedDoc(elems), containment.Build(keys.VCDBS()))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

var editSizes = []int{1_000, 10_000, 100_000}

// BenchmarkEditVsSize is ROADMAP item 2's doc/edit-vs-size: one
// snapshot edit (clone, insert, publish) against documents of growing
// size. B/op is what an edit copies.
func BenchmarkEditVsSize(b *testing.B) {
	for _, elems := range editSizes {
		b.Run(fmt.Sprintf("elems=%d", elems), func(b *testing.B) {
			c := sizedConcurrent(b, elems)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Section 1 is node id 1; its child list is the one
				// list the edit touches.
				if _, _, err := c.InsertElement(1, 0, "x"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEditBytesBounded pins what a snapshot edit may allocate once the
// document's first edit has packed its child lists into an id arena
// (16 B per id, once; TestWorstEditBytesBounded pins it): the edited
// parent's run, copied to the arena's end, the clone's overlay of
// changed runs (at most about √ids entries of 12 B) and its share of
// the fold that empties the overlay (about √ids × 8 B) — not a copy of
// the document, which was about 250 B per id, nor its child-list
// headers, which were 24. One history inserts under one section, so
// its overlay holds one entry; the other spreads its inserts over every
// element of every section, so its overlay fills and folds four times.
func TestEditBytesBounded(t *testing.T) {
	for _, spread := range []bool{false, true} {
		for _, elems := range editSizes {
			c := sizedConcurrent(t, elems)
			// The first edit clones the tree the document was built
			// with, which packs it.
			if _, _, err := c.InsertElement(0, 0, "x"); err != nil {
				t.Fatal(err)
			}
			edits := 64
			if spread {
				edits = 4 * int(math.Sqrt(float64(elems)))
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < edits; i++ {
				// Section 1 is node id 1; 7919 is prime, so the spread
				// history meets a new element every time.
				parent := 1
				if spread {
					parent = i * 7919 % elems
				}
				if _, _, err := c.InsertElement(parent, 0, "x"); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			var ids int
			_ = c.Snapshot(func(d *Document) error { ids = d.Labeling().Tree().Cap(); return nil })
			perEdit := (after.TotalAlloc - before.TotalAlloc) / uint64(edits)
			bound := uint64(32*math.Sqrt(float64(ids))) + 8<<10
			t.Logf("%d elements, spread %v: %d B per edit (%.1f B per √id), bound %d",
				elems, spread, perEdit, float64(perEdit)/math.Sqrt(float64(ids)), bound)
			if perEdit > bound {
				t.Errorf("%d elements, spread %v: %d B allocated per Concurrent.InsertElement, want at most 32 B x √%d ids + 8 KB = %d",
					elems, spread, perEdit, ids, bound)
			}
		}
	}
}

// TestWorstEditBytesBounded pins the worst edit of a long run, where
// TestEditBytesBounded pins the mean: over 4 096 inserts into a shared
// document of 100 000 elements no single edit allocates more than the
// first, which packs the child lists into an id arena, or a fold with
// a compaction — the one edit in many that writes a span for every id
// and moves every live run, about 16 B per id — and a chunk or two: a
// write-once column or an arena out of room adds a chunk, it does not
// move.
func TestWorstEditBytesBounded(t *testing.T) {
	c := sizedConcurrent(t, 100_000)
	var worst, ids uint64
	var before, after runtime.MemStats
	for i := 0; i < 4096; i++ {
		runtime.ReadMemStats(&before)
		if _, _, err := c.InsertElement(1+51*(i%1000), 0, "x"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > worst {
			worst, ids = n, uint64(100_000+i+1)
		}
	}
	bound := 18*ids + 64<<10
	t.Logf("worst edit: %d B at %d ids (%.1f B per id), bound %d", worst, ids, float64(worst)/float64(ids), bound)
	if worst > bound {
		t.Errorf("one Concurrent.InsertElement allocated %d B at %d ids, want at most 18 B x ids + 64 KB = %d", worst, ids, bound)
	}
}

// TestOpenBytesBounded pins what labelling and indexing a document
// allocate: the columns at their final size, the keys written once
// into an arena sized for them, no list of nodes and no boxed code in
// between, and a node's name as a four-byte code. Hamlet took 352 B per
// node when every code was boxed and the tree mirrored through a map,
// 128 when every node held a string header and a leaf pointer, 108
// while the element index grew its lists by append, and 88 while the
// bulk labelling listed its keys before it stored them; it takes 78
// now.
func TestOpenBytesBounded(t *testing.T) {
	doc := datagen.Hamlet()
	nodes := doc.Len()
	const opens = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < opens; i++ {
		if _, err := New(doc, containment.Build(keys.VCDBS())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / opens / float64(nodes)
	t.Logf("Hamlet, %d nodes: %.0f B per node", nodes, perNode)
	if perNode > 80 {
		t.Errorf("New(Hamlet) allocates %.0f B per node, want at most 80", perNode)
	}
}

// BenchmarkOpen labels and indexes Hamlet under V-CDBS-Containment, as
// every Open, reopen and follower bootstrap does.
func BenchmarkOpen(b *testing.B) {
	doc := datagen.Hamlet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(doc, containment.Build(keys.VCDBS())); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInsertTreeBytes pins what inserting a 5-node fragment into Hamlet
// allocates once the tree's id list has grown: the fragment's ids and
// names, the run's sink and the parent's longer child list, and no
// list of positions or keys. It took 538 B in 16 allocations while the
// keys went through lists; it takes 451 B in 9 (499 B under -race,
// whose appends allocate more).
func TestInsertTreeBytes(t *testing.T) {
	d, err := New(datagen.Hamlet(), containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	frag := xmltree.NewElement("speech")
	for _, name := range []string{"speaker", "line", "line", "line"} {
		frag.AppendChild(xmltree.NewElement(name))
	}
	speeches, err := d.QueryString("//speech")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	insert := func() {
		if _, _, err := d.InsertTree(speeches[rng.Intn(len(speeches))], 0, frag); err != nil {
			t.Fatal(err)
		}
	}
	insert() // grows the tree's id list
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, insert)
	runtime.ReadMemStats(&after)
	perInsert := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun's warm-up run too
	t.Logf("a 5-node InsertTree allocates %.0f B in %.0f allocations", perInsert, allocs)
	if perInsert > 520 || allocs > 10 {
		t.Errorf("a 5-node InsertTree allocates %.0f B in %.0f allocations, want at most 520 B in 10", perInsert, allocs)
	}
}

// fifoHistory runs edits on c as a served document's clients do: an
// element inserted under a random one of parents at a random place,
// and, once keep of them stand, each further edit deleting the oldest.
// check runs after every edit.
func fifoHistory(t *testing.T, c *Concurrent, parents []int, edits, keep int, check func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var fifo []int
	for i := 0; i < edits; i++ {
		if len(fifo) == keep {
			if _, err := c.DeleteSubtree(fifo[0]); err != nil {
				t.Fatal(err)
			}
			fifo = fifo[1:]
		} else {
			p := parents[rng.Intn(len(parents))]
			var n int
			_ = c.Snapshot(func(d *Document) error { n = len(d.Labeling().Tree().Kids(p)); return nil })
			id, _, err := c.InsertElement(p, rng.Intn(n+1), "x")
			if err != nil {
				t.Fatal(err)
			}
			fifo = append(fifo, id)
		}
		check()
	}
}

// TestForkedTreeBytes pins what a served document's tree holds once
// its edits have forked it: per id its parent and depth (8 B) and its
// run's span (8 B), per child 8 B in the id arena, and at most as many
// dead slots as live ones. With every id's 24 B list header it held
// 40.4 B per live node on the 10-play document and 44.4 on the tenant
// order after the same histories. A long history on a small document must not let the arena
// fill with dead runs: after every edit they are at most the live ones
// and a chunk.
func TestForkedTreeBytes(t *testing.T) {
	plays := xmltree.NewElement("plays")
	for _, f := range datagen.D5(1).Files[:10] {
		plays.AppendChild(f.Root)
	}
	order := xmltree.NewElement("order")
	for i := 0; i < 100; i++ {
		item := order.AppendChild(xmltree.NewElement("item"))
		for _, f := range []string{"sku", "qty", "price", "note"} {
			item.AppendChild(xmltree.NewElement(f))
		}
	}
	for _, w := range []struct {
		name, parent string
		root         *xmltree.Node
		edits, keep  int
	}{
		// About as many edits as one document takes in a run of
		// serve-read and of tenants-write, with their FIFO depths.
		{"10 plays", "speech", plays, 200, 64},
		{"order", "item", order, 100, 16},
	} {
		c, err := NewConcurrent(&xmltree.Document{Root: w.root}, containment.Build(keys.VCDBS()))
		if err != nil {
			t.Fatal(err)
		}
		var parents []int
		_ = c.Snapshot(func(d *Document) error {
			parents, err = d.QueryString("//" + w.parent)
			return err
		})
		if err != nil || len(parents) == 0 {
			t.Fatalf("%s: //%s = %v, %v", w.name, w.parent, parents, err)
		}
		fifoHistory(t, c, parents, w.edits, w.keep, func() {})
		_ = c.Snapshot(func(d *Document) error {
			tr := d.Labeling().Tree()
			perNode := float64(tr.Bytes()) / float64(tr.Len())
			t.Logf("%s: %d live nodes, %d ids: %.1f B per live node, %.1f per id", w.name, tr.Len(), tr.Cap(), perNode,
				float64(tr.Bytes())/float64(tr.Cap()))
			if tr.Children != nil || perNode > 30 {
				t.Errorf("%s: a forked tree (Children nil: %v) holds %.1f B per live node, want at most 30",
					w.name, tr.Children == nil, perNode)
			}
			return nil
		})
	}

	// One chunk of an arena this small is 64 ids.
	c := sizedConcurrent(t, 1_000)
	parents := make([]int, 999)
	for i := range parents {
		parents[i] = i + 1
	}
	worst := 0
	fifoHistory(t, c, parents, 100_000, 16, func() {
		_ = c.Snapshot(func(d *Document) error {
			slots, dead, _ := d.Labeling().Tree().Packing()
			if dead > slots-dead+64 {
				t.Fatalf("the id arena holds %d dead slots beside %d live ones", dead, slots-dead)
			}
			worst = max(worst, dead)
			return nil
		})
	})
	t.Logf("1 000 elements, 100 000 edits: at most %d dead slots", worst)
}
