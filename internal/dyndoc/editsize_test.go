package dyndoc

import (
	"fmt"
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

// TestEditBytesBounded pins what a snapshot edit may allocate: the
// flat per-id copies (child-list headers 24 B, dead bit 1/8 B) and the
// lists the edit touches — not a copy of the document, which was about
// 250 B per id, and not a list of its elements, which was 8 more.
func TestEditBytesBounded(t *testing.T) {
	const edits = 64
	for _, elems := range editSizes {
		c := sizedConcurrent(t, elems)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < edits; i++ {
			if _, _, err := c.InsertElement(1, 0, "x"); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		var ids int
		_ = c.Snapshot(func(d *Document) error { ids = d.Labeling().Tree().Cap(); return nil })
		perEdit := (after.TotalAlloc - before.TotalAlloc) / edits
		bound := uint64(26*ids + 8<<10)
		t.Logf("%d elements: %d B per edit (%.1f B per id), bound %d", elems, perEdit, float64(perEdit)/float64(ids), bound)
		if perEdit > bound {
			t.Errorf("%d elements: %d B allocated per Concurrent.InsertElement, want at most 26 B x %d ids + 8 KB = %d",
				elems, perEdit, ids, bound)
		}
	}
}

// TestWorstEditBytesBounded pins the worst edit of a long run, where
// TestEditBytesBounded pins the mean: over 4 096 inserts into a shared
// document of 100 000 elements no single edit allocates more than the
// flat per-id copies and a chunk or two — a write-once column or the
// label arena out of room adds a chunk, it does not move.
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
	bound := 26*ids + 64<<10
	t.Logf("worst edit: %d B at %d ids (%.1f B per id), bound %d", worst, ids, float64(worst)/float64(ids), bound)
	if worst > bound {
		t.Errorf("one Concurrent.InsertElement allocated %d B at %d ids, want at most 26 B x ids + 64 KB = %d", worst, ids, bound)
	}
}

// TestOpenBytesBounded pins what labelling and indexing a document
// allocate: the columns at their final size, the keys written once
// into an arena sized for them, no list of nodes and no boxed code in
// between. Hamlet took 352 B per node when every code was boxed and
// the tree mirrored through a map; it takes 128 now.
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
	if perNode > 160 {
		t.Errorf("New(Hamlet) allocates %.0f B per node, want at most 160", perNode)
	}
}
