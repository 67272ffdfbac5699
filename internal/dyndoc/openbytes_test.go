package dyndoc_test

import (
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	dynxml "repro"
	"repro/internal/containment"
	"repro/internal/datagen"
	"repro/internal/dyndoc"
	"repro/internal/journal"
	"repro/internal/keys"
)

// TestOpenBytesBounded pins what labelling and indexing a document
// allocate: the columns at their final size, the keys written once
// into an arena sized for them, no list of nodes and no boxed code in
// between, and a node's name as a four-byte code. Hamlet took 352 B per
// node when every code was boxed and the tree mirrored through a map,
// 128 when every node held a string header and a leaf pointer, 108
// while the element index grew its lists by append, 88 while the bulk
// labelling listed its keys before it stored them, 77.7 while each
// child list was allocated exact, and 81.6 while the lists were carved
// from one slab under Children headers that the live tree dropped, and
// the slice index copied the element list it was given. It takes 48.3
// now that NewTree writes the live tree's runs and index in one walk
// and the index keeps the element list it groups in place.
//
// The served opens are pinned too, each to what it took with 5 to 8 B a
// node to spare (a journaled open writes the checkpoint; a replay reads
// and parses it and maps its ids): a path that labels with the builder
// made for use alone (registry's Entry.Build) lays 24 B of Children
// headers a node over the runs and fails its pin.
func TestOpenBytesBounded(t *testing.T) {
	doc := datagen.Hamlet()
	nodes := doc.Len()
	const opens = 8
	pin := func(t *testing.T, bound float64, open func(i int) func()) {
		t.Helper()
		var before, after runtime.MemStats
		var closers []func()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < opens; i++ {
			closers = append(closers, open(i))
		}
		runtime.ReadMemStats(&after)
		for _, c := range closers {
			c()
		}
		perNode := float64(after.TotalAlloc-before.TotalAlloc) / opens / float64(nodes)
		t.Logf("Hamlet, %d nodes: %.1f B per node", nodes, perNode)
		if perNode > bound {
			t.Errorf("allocates %.1f B per node, want at most %g", perNode, bound)
		}
	}
	t.Run("New", func(t *testing.T) {
		pin(t, 52, func(int) func() {
			if _, err := dyndoc.New(doc, containment.Build(keys.VCDBS())); err != nil {
				t.Fatal(err)
			}
			return func() {}
		})
	})
	t.Run("Open", func(t *testing.T) {
		pin(t, 52, func(int) func() {
			h, err := dynxml.Open(doc)
			if err != nil {
				t.Fatal(err)
			}
			return func() { _ = h.Close() }
		})
	})
	openJournal := func(t *testing.T, dir string) func() {
		h, err := dynxml.Open(doc, dynxml.WithJournal(dir))
		if err != nil {
			t.Fatal(err)
		}
		return func() { _ = h.Close() }
	}
	t.Run("OpenJournal", func(t *testing.T) {
		dir := t.TempDir()
		pin(t, 204, func(i int) func() { return openJournal(t, filepath.Join(dir, strconv.Itoa(i))) })
	})
	// A journaled open leaves a checkpoint and no edit.
	t.Run("Replay", func(t *testing.T) {
		dir := t.TempDir()
		for i := 0; i < opens; i++ {
			openJournal(t, filepath.Join(dir, strconv.Itoa(i)))()
		}
		pin(t, 455+replayRaceSlack, func(i int) func() {
			j, _, _, err := journal.Replay(journal.Config{Dir: filepath.Join(dir, strconv.Itoa(i))})
			if err != nil {
				t.Fatal(err)
			}
			return func() { _ = j.Close() }
		})
	})
}

// replayRaceSlack is what a -race build adds to a replay's bytes a node
// (20 B on amd64).
var replayRaceSlack float64
