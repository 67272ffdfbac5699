package dynxml

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
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
// by to what the heap says, within a factor of two either way — for a
// fresh document and for one aged by 5 000 edits, whose per-id arrays
// have grown with every id ever allocated while its live node count
// stood still.
func TestMemoryFootprintTracksHeap(t *testing.T) {
	open := func() *Handle {
		h, err := Open(datagen.Hamlet(), WithConcurrent())
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	aged := func() *Handle {
		h := open()
		speeches, err := h.QueryString("//speech")
		if err != nil || len(speeches) == 0 {
			t.Fatalf("speeches: %d, %v", len(speeches), err)
		}
		// Every edit pair leaves the live count where it was.
		for i := 0; i < 2500; i++ {
			id, _, err := h.InsertElement(speeches[i%len(speeches)], 0, "aside")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.DeleteSubtree(id); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	for name, build := range map[string]func() *Handle{"fresh": open, "aged by 5000 edits": aged} {
		h, heap := heapDelta(t, build)
		est := h.MemoryFootprint()
		t.Logf("%s: %d live nodes, estimate %d B, heap %d B (%.2fx)", name, h.Len(), est, heap, float64(est)/float64(heap))
		if est > 2*heap || heap > 2*est {
			t.Errorf("%s: MemoryFootprint %d B is not within 2x of the measured heap %d B", name, est, heap)
		}
		runtime.KeepAlive(h)
	}

	// The paged backend's share is its page cache — decoded nodes, not
	// 4 KB buffers — and Close drops exactly that. What the estimate
	// gives up at Close must be within 2x of what the heap gives back.
	h, err := Open(datagen.Hamlet(), WithPagedLabels(t.TempDir()), WithPageCache(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.QueryString("//speech"); err != nil {
		t.Fatal(err)
	}
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
	t.Logf("paged: %d resident pages, estimate %d B, heap %d B (%.2fx)", pages, share, freed, float64(share)/float64(freed))
	if pages < 32 || share > 2*freed || freed > 2*share {
		t.Errorf("paged: backend share %d B over %d pages is not within 2x of the measured heap %d B", share, pages, freed)
	}
	runtime.KeepAlive(h)
}
