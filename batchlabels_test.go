package dynxml

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/xmltree"
)

// twoNodeFragments returns n fragments of two elements each.
func twoNodeFragments(n int) []*Node {
	frags := make([]*Node, n)
	for i := range frags {
		f := xmltree.NewElement("f")
		f.AppendChild(xmltree.NewElement("g"))
		frags[i] = f
	}
	return frags
}

// TestJournaledBatchLabels: a bulk insert labels its run in one pass on
// every kind of handle. A journaled handle records the run as one
// OpInsertTree per fragment, and the batch is labeled — when applied and
// when replayed — exactly as a plain or shared handle labels
// InsertTreeBatch: the same ids, XML and label bits, before and after a
// Checkpoint and a reopen.
func TestJournaledBatchLabels(t *testing.T) {
	const base = `<root><a></a><b></b></root>`
	dir := filepath.Join(t.TempDir(), "journal")
	open := func(src any, opts ...Option) *Handle {
		t.Helper()
		h, err := Open(src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Close() })
		return h
	}
	same := func(what string, hs map[string]*Handle, ids map[string][][]int) {
		t.Helper()
		var wantXML string
		var wantBits int64
		var wantIDs [][]int
		for _, name := range []string{"plain", "shared", "journaled"} {
			h := hs[name]
			bits := h.Labeling().TotalLabelBits()
			if name == "plain" {
				wantXML, wantBits, wantIDs = h.XML(), bits, ids[name]
				continue
			}
			if h.XML() != wantXML {
				t.Fatalf("%s: %s handle has XML %s, plain %s", what, name, h.XML(), wantXML)
			}
			if bits != wantBits {
				t.Fatalf("%s: %s handle has %d label bits, plain %d", what, name, bits, wantBits)
			}
			if ids != nil && !slices.EqualFunc(ids[name], wantIDs, slices.Equal) {
				t.Fatalf("%s: %s handle gave ids %v, plain %v", what, name, ids[name], wantIDs)
			}
		}
	}
	batch := func(hs map[string]*Handle) map[string][][]int {
		t.Helper()
		ids := map[string][][]int{}
		for name, h := range hs {
			got, _, err := h.InsertTreeBatch(0, 1, twoNodeFragments(16))
			if err != nil {
				t.Fatal(err)
			}
			ids[name] = got
		}
		return ids
	}

	hs := map[string]*Handle{
		"plain":     open(base),
		"shared":    open(base, WithConcurrent()),
		"journaled": open(base, WithJournal(dir)),
	}
	same("one batch", hs, batch(hs))
	if err := hs["journaled"].Close(); err != nil {
		t.Fatal(err)
	}
	hs["journaled"] = open(nil, WithJournal(dir))
	same("the batch replayed", hs, nil)

	// After a checkpoint the journaled document reopens from its text, so
	// the others start over from the same text.
	if err := hs["journaled"].Checkpoint(); err != nil {
		t.Fatal(err)
	}
	text := hs["journaled"].XML()
	hs["plain"], hs["shared"] = open(text), open(text, WithConcurrent())
	ids := batch(hs)
	if err := hs["journaled"].Close(); err != nil {
		t.Fatal(err)
	}
	hs["journaled"] = open(nil, WithJournal(dir))
	same("a batch after a checkpoint, replayed", hs, nil)
	if !slices.EqualFunc(ids["journaled"], ids["plain"], slices.Equal) {
		t.Fatalf("after a checkpoint the journaled handle gave ids %v, plain %v", ids["journaled"], ids["plain"])
	}
}

// TestPlainBatchRunAllOrNothing: on a plain handle a batch applies in
// place up to its first failing edit, and a run of fragment inserts is
// one edit there: a bad fragment anywhere in it applies none of the run.
func TestPlainBatchRunAllOrNothing(t *testing.T) {
	h, err := Open(`<root><a></a><b></b></root>`)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	good := twoNodeFragments(2)
	res, err := h.ApplyBatch([]Edit{
		{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "first"},
		{Op: OpInsertTree, Parent: 0, Pos: 1, Fragment: good[0]},
		{Op: OpInsertTree, Parent: 0, Pos: 2, Fragment: xmltree.NewText("not an element")},
		{Op: OpInsertTree, Parent: 0, Pos: 3, Fragment: good[1]},
	})
	if err == nil {
		t.Fatal("a run with a text fragment applied")
	}
	if len(res) != 1 {
		t.Fatalf("%d results returned with the error, want the 1 before the run", len(res))
	}
	if got, want := h.XML(), `<root><first></first><a></a><b></b></root>`; got != want {
		t.Fatalf("XML after the refused run = %s, want %s", got, want)
	}
}

// TestCloseEndsWatches: closing a handle closes its watch channels, as a
// catalog eviction or the HTTP close route does through it.
func TestCloseEndsWatches(t *testing.T) {
	h, _ := openDurable(t)
	ch, cancel, err := h.Watch("/root/w")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("a notification after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch channel still open 5 s after Close")
	}
	if _, _, err := h.Watch("/root/w"); err == nil {
		t.Fatal("Watch on a closed handle succeeded")
	}
}
