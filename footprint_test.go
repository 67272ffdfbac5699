package dynxml

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// heapDelta returns how much live heap build's result holds: HeapAlloc
// after a collection with the handle alive, less HeapAlloc before
// build ran.
func heapDelta(t *testing.T, build func() *Handle) (*Handle, int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return h, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestMemoryFootprintTracksHeap pins the estimate the catalog evicts
// by to what the heap says, within a factor of 1.5 either way — for a
// fresh document, for one aged by 5 000 edits, whose per-id columns and
// label arena have grown with every id ever allocated while its live
// node count stood still, for one grown by 10 000 inserts, most of
// whose ids and keys lie in chunks added since it was opened and are
// charged at what those chunks allocated, for an unshared one whose
// slice index holds
// its all-elements memo, for one whose index is paged, and for one
// whose result cache holds more bytes — a dozen large results and their
// renderings — than the document itself, concurrent or live.
func TestMemoryFootprintTracksHeap(t *testing.T) {
	open := func(opts ...Option) *Handle {
		h, err := Open(datagen.Hamlet(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fresh := func() *Handle { return open(WithConcurrent()) }
	// edited inserts n asides, and deletes each again unless keep.
	edited := func(n int, keep bool) *Handle {
		h := fresh()
		speeches, err := h.QueryString("//speech")
		if err != nil || len(speeches) == 0 {
			t.Fatalf("speeches: %d, %v", len(speeches), err)
		}
		for i := 0; i < n; i++ {
			id, _, err := h.InsertElement(speeches[i%len(speeches)], 0, "aside")
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				continue
			}
			// Every edit pair leaves the live count where it was.
			if _, err := h.DeleteSubtree(id); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	aged := func() *Handle { return edited(2500, false) }
	grown := func() *Handle { return edited(10000, true) }
	listed := func() *Handle {
		h := open()
		before := h.MemoryFootprint()
		if n, err := h.Count("//*"); err != nil || n == 0 || h.MemoryFootprint() < before+8*int64(n) {
			t.Fatalf("//*: %d, %v; the estimate went from %d to %d B", n, err, before, h.MemoryFootprint())
		}
		return h
	}
	paged := func() *Handle {
		h := open(WithPagedLabels(t.TempDir()), WithPageCache(64))
		if _, err := h.QueryString("//speech"); err != nil {
			t.Fatal(err)
		}
		return h
	}
	cached := func(opts ...Option) *Handle {
		h := open(opts...)
		for _, q := range []string{
			"//*", "/play//*", "//act//*", "//scene//*", "//speech//*", "//speech/*", "//line", "//speech/line",
			"//scene//line", "//act//line", "/play//line", "//scene/speech/line", "//act/scene/speech/line",
		} {
			b, err := h.QueryRendered(q, func(ids []int) []byte { return []byte(fmt.Sprint(ids)) })
			if err != nil || len(b) < 4*4000 {
				t.Fatalf("%s: rendering of %d bytes, %v", q, len(b), err)
			}
		}
		var fp int64
		h.view(func(d *LiveDocument) { fp = d.CacheFootprint() })
		if 2*fp < h.MemoryFootprint() {
			t.Fatalf("the cache holds %d B of a %d B estimate: not the large share this case is about", fp, h.MemoryFootprint())
		}
		return h
	}
	for name, build := range map[string]func() *Handle{"fresh": fresh, "aged by 5000 edits": aged, "grown by 10000 inserts": grown, "all elements listed": listed, "paged": paged,
		"large cached results":              func() *Handle { return cached(WithConcurrent()) },
		"live handle, large cached results": func() *Handle { return cached() },
	} {
		h, heap := heapDelta(t, build)
		est := h.MemoryFootprint()
		t.Logf("%s: %d live nodes, estimate %d B, heap %d B (%.2fx)", name, h.Len(), est, heap, float64(est)/float64(heap))
		if 2*est > 3*heap || 2*heap > 3*est {
			t.Errorf("%s: MemoryFootprint %d B is not within 1.5x of the measured heap %d B", name, est, heap)
		}
		if err := h.Close(); err != nil { // also keeps h alive to here
			t.Fatal(err)
		}
	}

	// The paged backend's share is its page cache — one 4 KB frame and a
	// cache entry per resident page — and Close drops exactly that. What
	// the estimate gives up at Close must be within 1.25x of what the
	// heap gives back.
	h := paged()
	heapNow := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	estOpen, heapOpen := h.MemoryFootprint(), heapNow()
	pages := h.Stats().Storage.ResidentPages
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	share, freed := estOpen-h.MemoryFootprint(), heapOpen-heapNow()
	t.Logf("paged: %d resident pages, backend share %d B, heap %d B (%.2fx)", pages, share, freed, float64(share)/float64(freed))
	if pages < 32 || 4*share > 5*freed || 4*freed > 5*share {
		t.Errorf("paged: backend share %d B over %d pages is not within 1.25x of the measured heap %d B", share, pages, freed)
	}
	runtime.KeepAlive(h)
}

// TestFirstInsertBytesBounded pins the first edit of a freshly opened
// document, the one that finds every write-once column exactly full: it
// adds a chunk to each and copies none of them. What it still
// allocates per id is Tree.Children's outer slice, a plain [][]int of
// 24 B headers that append moves with a quarter to spare (and that
// alone; it was 100 B per id when every column and the label arena
// moved with it).
func TestFirstInsertBytesBounded(t *testing.T) {
	plays := xmltree.NewElement("plays")
	for _, f := range datagen.D5(1).Files[:10] {
		plays.AppendChild(f.Root)
	}
	for name, doc := range map[string]*xmltree.Document{"Hamlet": datagen.Hamlet(), "ten plays": {Root: plays}} {
		h, err := Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = h.InsertElement(0, 0, "x")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got, ids := int64(after.TotalAlloc-before.TotalAlloc), int64(h.Len())
		t.Logf("%s: the first insert into %d ids allocates %d B (%.1f B per id)", name, ids, got, float64(got)/float64(ids))
		if bound := 32*ids + 16<<10; got > bound {
			t.Errorf("%s: the first InsertElement after Open allocates %d B, want at most 32 B x %d ids + 16 KB = %d", name, got, ids, bound)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
