package dyndoc

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/symtab"
	"repro/internal/xmltree"
)

// badNames are element or attribute names a checkpoint could not bring
// back: the first three make its XML unreadable, and "p:q" reads back
// as "q".
var badNames = []string{"", "a b", "x><y", "1abc", "p:q", ":a"}

// TestBadNamesRefused: a bad name is refused wherever it enters, with
// symtab.ErrBadName and before anything is labeled, so the document, its next
// id and every answer stay as they were.
func TestBadNamesRefused(t *testing.T) {
	withAttr := func(elem, attr string) *xmltree.Node {
		n := xmltree.NewElement(elem)
		n.AppendChild(xmltree.NewAttr(attr, "v"))
		n.AppendChild(xmltree.NewElement("book")).AppendChild(xmltree.NewText("t"))
		return n
	}
	for name, b := range builders() {
		t.Run(name, func(t *testing.T) {
			d, err := Parse(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			c, err := ParseConcurrent(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			next, xml := d.Labeling().Tree().Cap(), d.XML()
			for _, bad := range badNames {
				deep := withAttr("shelf", "id")
				deep.Children[1].AppendChild(xmltree.NewElement(bad))
				for what, err := range map[string]error{
					"New":                    only(New(&xmltree.Document{Root: xmltree.NewElement(bad)}, b)),
					"New, attribute":         only(New(&xmltree.Document{Root: withAttr("r", bad)}, b)),
					"InsertElement":          third(d.InsertElement(0, 0, bad)),
					"InsertTree":             third(d.InsertTree(0, 0, xmltree.NewElement(bad))),
					"InsertTree, descendant": third(d.InsertTree(0, 0, deep)),
					"InsertTree, attribute":  third(d.InsertTree(0, 0, withAttr("shelf", bad))),
					"InsertTreeBatch":        third(d.InsertTreeBatch(0, 0, []*xmltree.Node{withAttr("shelf", "id"), withAttr(bad, "id")})),
					"Concurrent.ApplyBatch": only(c.ApplyBatch([]Edit{
						{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "ok"},
						{Op: OpInsertElement, Parent: 0, Pos: 0, Name: bad},
					})),
				} {
					if !errors.Is(err, symtab.ErrBadName) {
						t.Errorf("%s naming %q: %v, want ErrBadName", what, bad, err)
					}
				}
			}
			if d.XML() != xml || c.XML() != xml || c.Generation() != 0 {
				t.Fatalf("refused inserts changed the document: %s, %s, generation %d", d.XML(), c.XML(), c.Generation())
			}
			if n, err := d.Count("//book"); err != nil || n != 3 {
				t.Fatalf("//book = %d, %v after the refusals, want 3", n, err)
			}
			ids, _, err := d.InsertTree(0, 0, withAttr("shelf", "id"))
			if err != nil || ids[0] != next {
				t.Fatalf("valid insert after the refusals: ids %v, %v; want the next id %d first", ids, err, next)
			}
			if got, want := d.XML(), `<library><shelf id="v"><book>t</book></shelf>`; len(got) < len(want) || got[:len(want)] != want {
				t.Fatalf("XML after a valid insert = %s", got)
			}
		})
	}
}

func only[T any](_ T, err error) error          { return err }
func third[T, U any](_ T, _ U, err error) error { return err }

// TestSymbolTableStorm races the one symbol table a document family
// shares. Each writer owns a clone of one document. Into it, it inserts
// elements and attributes under names that every writer interns new at
// about the same time and under names that only it interns, and after
// each insert it hands a clone of its document — a snapshot — and a copy
// of its model to the readers. One more clone interns a name no other
// uses and is discarded. The readers keep resolving every code of the
// snapshots they hold while the writers intern, and in the end every
// snapshot's XML equals its model's. Run it under -race.
func TestSymbolTableStorm(t *testing.T) {
	const writers, steps, readers, keep = 4, 40, 3, 6
	base, err := New(miniPlay(), containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	names := base.syms.Len()
	// Each writer's batches, and the model after each, built here on the
	// test's goroutine; the writers share only the fragments, read-only.
	type held struct {
		d *Document
		m *model
	}
	batches, models := make([][][]Edit, writers), make([][]*model, writers)
	for w := range batches {
		m := newModel(miniPlay())
		for s := 0; s < steps; s++ {
			shared, own := fmt.Sprintf("s%d", s), fmt.Sprintf("w%d-s%d", w, s)
			frag := xmltree.NewElement(own)
			frag.AppendChild(xmltree.NewAttr(shared+"a", own))
			frag.AppendChild(xmltree.NewAttr(own+"a", shared))
			frag.AppendChild(xmltree.NewText(own))
			batch := []Edit{
				{Op: OpInsertElement, Parent: 0, Pos: 0, Name: shared},
				{Op: OpInsertTree, Parent: 0, Pos: 1, Fragment: frag},
			}
			m.apply(t, batch...)
			batches[w], models[w] = append(batches[w], batch), append(models[w], m.clone())
		}
	}

	snaps := make(chan held, writers) // a slot per writer: writers seldom wait on readers
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			resolve := func(h held) {
				for id, n := range h.m.nodes {
					want := ""
					if n.Kind == xmltree.Element {
						want = n.Name
					}
					if got := h.d.NameOf(id); got != want {
						t.Errorf("snapshot resolves id %d to %q, want %q", id, got, want)
					}
				}
			}
			var ring []held
			for h := range snaps {
				if ring = append(ring, h); len(ring) > keep {
					ring = ring[1:]
				}
				for _, old := range ring {
					resolve(old)
				}
			}
			for _, h := range ring {
				if got, want := h.d.XML(), h.m.doc.String(); got != want {
					t.Errorf("snapshot XML\n got %s\nwant %s", got, want)
				}
			}
		}()
	}

	var wwg sync.WaitGroup
	for w := range batches {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			d, err := base.Clone()
			for s := 0; s < steps && err == nil; s++ {
				var snap *Document
				if _, err = d.ApplyBatch(batches[w][s]); err == nil {
					snap, err = d.Clone()
				}
				if err == nil {
					snaps <- held{snap, models[w][s]}
				}
			}
			if err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}()
	}
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		gone, err := base.Clone()
		if err == nil {
			_, _, err = gone.InsertElement(0, 0, "discarded")
		}
		if err != nil {
			t.Error(err)
		}
	}()
	wwg.Wait()
	close(snaps)
	rwg.Wait()

	// Every writer's names and the discarded clone's are in the one table,
	// each once; the base document still reads as it was built.
	if got, want := base.syms.Len(), names+steps*(2+2*writers)+1; got != want {
		t.Errorf("the family's table holds %d names, want %d", got, want)
	}
	if got, want := base.XML(), miniPlay().String(); got != want {
		t.Errorf("base XML\n got %s\nwant %s", got, want)
	}
}
