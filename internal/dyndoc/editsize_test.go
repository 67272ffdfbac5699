package dyndoc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// document's first edit has packed its child lists into an id arena and
// its directory (TestWorstEditBytesBounded pins that pack): the table
// of directory chunks (8 B a chunk), the chunk and the run the edit
// changes, each copied once, and its share of the repack that follows a
// fifth as many dead slots as live ones — not a copy of the document,
// which was about 250 B per id, nor its child-list headers, which were
// 24. One history inserts under one section; the other spreads its
// inserts over every element of every section.
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
// first, which packs the child lists into an id arena, or a fold — the
// one edit in many that repacks every live run into an arena and index
// of its own, 8 B per child and 4 B per parent, about 9 B per id — and
// a chunk or two: a write-once column or an arena out of room adds a
// chunk, it does not move. With a span of 8 B per id, and a compaction
// apart from the fold, it read 16.9 B per id.
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
	bound := 12*ids + 64<<10
	t.Logf("worst edit: %d B at %d ids (%.1f B per id), bound %d", worst, ids, float64(worst)/float64(ids), bound)
	if worst > bound {
		t.Errorf("one Concurrent.InsertElement allocated %d B at %d ids, want at most 12 B x ids + 64 KB = %d", worst, ids, bound)
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

// raceSlackBytes and raceSlackAllocs are what a -race build may add to
// an allocation pin (race_test.go).
var raceSlackBytes, raceSlackAllocs float64

// hamletSpeeches opens Hamlet under V-CDBS-Containment and returns it
// with its speeches' ids, and a 5-node speech fragment.
func hamletSpeeches(tb testing.TB) (*Document, []int, *xmltree.Node) {
	tb.Helper()
	d, err := New(datagen.Hamlet(), containment.Build(keys.VCDBS()))
	if err != nil {
		tb.Fatal(err)
	}
	speeches, err := d.QueryString("//speech")
	if err != nil {
		tb.Fatal(err)
	}
	frag := xmltree.NewElement("speech")
	for _, name := range []string{"speaker", "line", "line", "line"} {
		frag.AppendChild(xmltree.NewElement(name))
	}
	return d, slices.Clone(speeches), frag
}

// TestInsertTreeBytes pins what inserting a 5-node fragment into Hamlet
// allocates once the tree's id list has grown: the fragment's ids and
// the parent's longer child list, and no list of positions, keys or
// names, and no sink. It took 538 B in 16 allocations while the keys
// went through lists, 450 B in 9 while the sink and the names had an
// allocation each, and 314 B in 7 while every parent's list grew by
// append; it takes 229 B in 3 now that a list is opened with a free
// slot and moves with twice the room.
func TestInsertTreeBytes(t *testing.T) {
	d, speeches, frag := hamletSpeeches(t)
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
	if perInsert > 360+raceSlackBytes || allocs > 7+raceSlackAllocs {
		t.Errorf("a 5-node InsertTree allocates %.0f B in %.0f allocations, want at most %.0f B in %.0f",
			perInsert, allocs, 360+raceSlackBytes, 7+raceSlackAllocs)
	}
}

// TestLeafEditAllocs pins that a live edit allocates nothing the
// document does not keep: an element inserted under a speech takes the
// free slot its child list was opened with and deleted again gives it
// back, so the pair costs only the new id's slots, which grow by
// amortised doubling and so round to 0. Until the open tree's lists had
// a free slot, the first insert grew the speech's list, and the test
// made one edit before it measured. The delete's doomed set and name
// lookup are pooled; while the lookup was the method value d.NameOf,
// built on every call, a pair took 1 allocation.
func TestLeafEditAllocs(t *testing.T) {
	d, speeches, _ := hamletSpeeches(t)
	parent := speeches[len(speeches)/2]
	edit := func() {
		id, _, err := d.InsertElement(parent, 0, "line")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DeleteSubtree(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(2000, edit); got > raceSlackAllocs {
		t.Errorf("InsertElement + DeleteSubtree of a leaf allocate %.0f times, want 0", got)
	}
}

// editRounds inserts b.N copies of the 5-node speech fragment into
// Hamlet and deletes them again, in rounds of 256, and times only the
// inserts, or only the deletes: the document stays Hamlet's size
// however large b.N is.
func editRounds(b *testing.B, timeDeletes bool) {
	d, speeches, frag := hamletSpeeches(b)
	ids := make([]int, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(ids) {
		if timeDeletes {
			b.StopTimer()
		}
		ids = ids[:0]
		for k := 0; k < min(cap(ids), b.N-done); k++ {
			got, _, err := d.InsertTree(speeches[(done+k)%len(speeches)], 0, frag)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, got[0])
		}
		if timeDeletes {
			b.StartTimer()
		} else {
			b.StopTimer()
		}
		for _, id := range ids {
			if _, err := d.DeleteSubtree(id); err != nil {
				b.Fatal(err)
			}
		}
		if !timeDeletes {
			b.StartTimer()
		}
	}
}

// BenchmarkInsertTree is one 5-node InsertTree into Hamlet.
func BenchmarkInsertTree(b *testing.B) { editRounds(b, false) }

// BenchmarkDeleteSubtree is the DeleteSubtree of one 5-node fragment
// in Hamlet.
func BenchmarkDeleteSubtree(b *testing.B) { editRounds(b, true) }

// BenchmarkKidsWalk walks Hamlet's tree in preorder through Kids after
// 300 speech fragments went into the live document, whose tree reads a
// list in a packed run, a moved run its packed slots forward to, or the
// overlay, which holds the runs of the fragments' ids.
func BenchmarkKidsWalk(b *testing.B) {
	d, speeches, frag := hamletSpeeches(b)
	for k := 0; k < 300; k++ {
		if _, _, err := d.InsertTree(speeches[k*7919%len(speeches)], 0, frag); err != nil {
			b.Fatal(err)
		}
	}
	tr := d.Labeling().Tree()
	var walk func(v int) int
	walk = func(v int) int {
		n := 1
		for _, c := range tr.Kids(v) {
			n += walk(c)
		}
		return n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := walk(0); n != tr.Len() {
			b.Fatalf("the walk met %d nodes, want %d", n, tr.Len())
		}
	}
}

// fifoEditor is what fifoHistory edits: a Concurrent, or a plainDoc.
type fifoEditor interface {
	InsertElement(parent, pos int, name string) (int, int, error)
	DeleteSubtree(id int) (int, error)
	Snapshot(fn func(d *Document) error) error
}

// plainDoc is a Document edited in place, never cloned, as an embedded
// handle's is; Snapshot reads the document itself.
type plainDoc struct{ *Document }

func (p plainDoc) Snapshot(fn func(d *Document) error) error { return fn(p.Document) }

// fifoHistory runs edits on c as a served document's clients do: an
// element inserted under a random one of parents at a random place,
// and, once keep of them stand, each further edit deleting the oldest.
// check runs after every edit.
func fifoHistory(t *testing.T, c fifoEditor, parents []int, edits, keep int, check func()) {
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
// directory bits, per parent its run's 5 B in a directory chunk, per
// child 8 B in the id arena, and at most as many dead slots as live
// ones. After the same histories it held 40.4 B per live node on the
// 10-play document and 44.4 on the tenant order with every id's 24 B
// list header, and 24.8 and 29.2 with an 8 B span per id. A document
// never cloned, edited in place by its owner, adds a free slot per
// parent (bound 24 B; 40.1 B while it kept every id's list header). A
// long history on a small document must not let the arena fill with
// dead runs: after every edit they are at most the live ones and a
// chunk.
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
		plain        bool
		bound        float64
	}{
		// About as many edits as one document takes in a run of
		// serve-read and of tenants-write, with their FIFO depths.
		{"10 plays", "speech", plays, 200, 64, false, 20},
		{"order", "item", order, 100, 16, false, 20},
		{"10 plays, never cloned", "speech", plays, 200, 64, true, 24},
	} {
		var c fifoEditor
		var err error
		doc, build := &xmltree.Document{Root: w.root}, containment.Build(keys.VCDBS())
		if w.plain {
			var d *Document
			d, err = New(doc, build)
			c = plainDoc{d}
		} else {
			c, err = NewConcurrent(doc, build)
		}
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
			if perNode > w.bound {
				t.Errorf("%s: the tree holds %.1f B per live node, want at most %.0f", w.name, perNode, w.bound)
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
			slots, dead := d.Labeling().Tree().Packing()
			if dead > slots-dead+64 {
				t.Fatalf("the id arena holds %d dead slots beside %d live ones", dead, slots-dead)
			}
			worst = max(worst, dead)
			return nil
		})
	})
	t.Logf("1 000 elements, 100 000 edits: at most %d dead slots", worst)
}
