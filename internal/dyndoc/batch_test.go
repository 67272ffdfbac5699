package dyndoc

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/registry"
	"repro/internal/xmltree"
)

// shelfFragment builds a small element tree to insert.
func shelfFragment(books int) *xmltree.Node {
	shelf := xmltree.NewElement("shelf")
	for i := 0; i < books; i++ {
		b := xmltree.NewElement("book")
		b.AppendChild(xmltree.NewElement("title"))
		shelf.AppendChild(b)
	}
	return shelf
}

// TestInsertTreeBatchMatchesSequential checks, for every builder,
// that a batch of fragments lands exactly like the same fragments
// inserted one by one: same ids, same names, same query answers.
func TestInsertTreeBatchMatchesSequential(t *testing.T) {
	for name, b := range builders() {
		t.Run(name, func(t *testing.T) {
			batch, err := Parse(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Parse(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			fragments := []*xmltree.Node{
				shelfFragment(1),
				shelfFragment(3),
				xmltree.NewElement("shelf"),
				shelfFragment(2),
			}
			ids, _, err := batch.InsertTreeBatch(0, 1, fragments)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(fragments) {
				t.Fatalf("got %d id slices for %d fragments", len(ids), len(fragments))
			}
			var flat []int
			for k, fids := range ids {
				if len(fids) != fragments[k].SubtreeSize() {
					t.Fatalf("fragment %d: %d ids for %d nodes", k, len(fids), fragments[k].SubtreeSize())
				}
				flat = append(flat, fids...)
			}
			var seqFlat []int
			for k, f := range fragments {
				fids, _, err := seq.InsertTree(0, 1+k, f)
				if err != nil {
					t.Fatal(err)
				}
				seqFlat = append(seqFlat, fids...)
			}
			if len(flat) != len(seqFlat) {
				t.Fatalf("batch created %d ids, sequential %d", len(flat), len(seqFlat))
			}
			for i := range flat {
				if flat[i] != seqFlat[i] {
					t.Fatalf("id %d: batch %d, sequential %d", i, flat[i], seqFlat[i])
				}
			}
			if batch.XML() != seq.XML() {
				t.Fatalf("batch XML %q differs from sequential %q", batch.XML(), seq.XML())
			}
			for _, q := range []string{"/library/shelf", "//book", "//shelf/book/title", "/library/shelf[2]"} {
				bids, err := batch.QueryString(q)
				if err != nil {
					t.Fatal(err)
				}
				sids, err := seq.QueryString(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(bids) != len(sids) {
					t.Fatalf("%s: batch %d matches, sequential %d", q, len(bids), len(sids))
				}
				for i := range bids {
					if bids[i] != sids[i] {
						t.Fatalf("%s: match %d is %d in batch, %d sequential", q, i, bids[i], sids[i])
					}
				}
			}
		})
	}
}

// TestInsertTreeBatchDynamicNoRelabel pins the headline property: on a
// dynamic scheme the whole batch lands without re-labeling anything.
func TestInsertTreeBatchDynamicNoRelabel(t *testing.T) {
	d, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	fragments := make([]*xmltree.Node, 32)
	for i := range fragments {
		fragments[i] = shelfFragment(2)
	}
	_, relabeled, err := d.InsertTreeBatch(0, 0, fragments)
	if err != nil {
		t.Fatal(err)
	}
	if relabeled != 0 {
		t.Fatalf("dynamic batch insert re-labeled %d nodes", relabeled)
	}
	if d.Relabeled() != 0 {
		t.Fatalf("document counted %d relabels", d.Relabeled())
	}
}

// TestInsertTreeBatchErrors: under every scheme a rejected batch —
// bad target, or a bad fragment anywhere in the run — is rejected
// before the first mutation.
func TestInsertTreeBatchErrors(t *testing.T) {
	for _, entry := range registry.All() {
		t.Run(entry.Name, func(t *testing.T) {
			d, err := Parse(seedDoc, entry.Build)
			if err != nil {
				t.Fatal(err)
			}
			if ids, relabeled, err := d.InsertTreeBatch(0, 0, nil); err != nil || ids != nil || relabeled != 0 {
				t.Fatalf("empty batch = %v, %d, %v; want nil, 0, nil", ids, relabeled, err)
			}
			wantXML, wantLen := d.XML(), d.Len()
			wantAll, err := d.QueryString("//*")
			if err != nil {
				t.Fatal(err)
			}
			frag := shelfFragment(1)
			for _, c := range []struct {
				what        string
				parent, pos int
				fragments   []*xmltree.Node
			}{
				{"negative parent", -1, 0, []*xmltree.Node{frag}},
				{"out-of-range position", 0, 99, []*xmltree.Node{frag}},
				{"nil fragment", 0, 0, []*xmltree.Node{nil}},
				{"text fragment", 0, 0, []*xmltree.Node{xmltree.NewText("t")}},
				{"text fragment after a good one", 0, 0, []*xmltree.Node{xmltree.NewElement("x"), xmltree.NewText("t")}},
				{"nil fragment after two good ones", 0, 1, []*xmltree.Node{frag, xmltree.NewElement("x"), nil}},
			} {
				if _, _, err := d.InsertTreeBatch(c.parent, c.pos, c.fragments); err == nil {
					t.Fatalf("%s accepted", c.what)
				}
				all, err := d.QueryString("//*")
				if err != nil {
					t.Fatal(err)
				}
				if d.XML() != wantXML || d.Len() != wantLen || !slices.Equal(all, wantAll) {
					t.Fatalf("%s: rejected batch changed the document: Len %d (was %d), //* %v (was %v), XML %s", c.what, d.Len(), wantLen, all, wantAll, d.XML())
				}
			}
		})
	}
}

// TestApplyBatch drives every op through one batch and checks the
// results line up with the individual operations.
func TestApplyBatch(t *testing.T) {
	d, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	results, err := d.ApplyBatch([]Edit{
		{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "index"},
		{Op: OpInsertTree, Parent: 0, Pos: 1, Fragment: shelfFragment(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if len(results[0].IDs) != 1 {
		t.Fatalf("insert element created %d ids", len(results[0].IDs))
	}
	if want := shelfFragment(2).SubtreeSize(); len(results[1].IDs) != want {
		t.Fatalf("insert tree created %d ids, want %d", len(results[1].IDs), want)
	}
	// Delete the subtree the batch itself created.
	results, err = d.ApplyBatch([]Edit{
		{Op: OpDeleteSubtree, Node: results[1].IDs[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := shelfFragment(2).SubtreeSize(); results[0].Removed != want {
		t.Fatalf("delete removed %d nodes, want %d", results[0].Removed, want)
	}
	if n, err := d.Count("//index"); err != nil || n != 1 {
		t.Fatalf("Count(//index) = %d, %v; want 1", n, err)
	}
}

// TestApplyBatchErrorKeepsPrefix checks the documented live-document
// semantics: on error the applied prefix is returned alongside it.
func TestApplyBatchErrorKeepsPrefix(t *testing.T) {
	d, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	results, err := d.ApplyBatch([]Edit{
		{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "ok"},
		{Op: OpInsertElement, Parent: -5, Pos: 0, Name: "bad"},
		{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "never"},
	})
	if err == nil {
		t.Fatal("bad edit accepted")
	}
	if !strings.Contains(err.Error(), "batch edit 1") {
		t.Fatalf("error %q does not identify the failing edit", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d prefix results, want 1", len(results))
	}
	if n, err := d.Count("//ok"); err != nil || n != 1 {
		t.Fatalf("Count(//ok) = %d, %v; want 1", n, err)
	}
	if n, err := d.Count("//never"); err != nil || n != 0 {
		t.Fatalf("Count(//never) = %d, %v; want 0", n, err)
	}
	if _, err := d.ApplyBatch([]Edit{{Op: EditOp(99)}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestDocumentClone checks deep independence of a cloned live document.
func TestDocumentClone(t *testing.T) {
	for name, b := range builders() {
		t.Run(name, func(t *testing.T) {
			d, err := Parse(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := d.Clone()
			if err != nil {
				t.Fatal(err)
			}
			wantXML, wantLen := cl.XML(), cl.Len()
			if _, _, err := d.InsertElement(0, 0, "magazine"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.InsertTree(0, 0, shelfFragment(2)); err != nil {
				t.Fatal(err)
			}
			if cl.XML() != wantXML || cl.Len() != wantLen {
				t.Fatal("clone changed after edits to the original")
			}
			if n, err := cl.Count("//magazine"); err != nil || n != 0 {
				t.Fatalf("clone sees the original's insert: %d, %v", n, err)
			}
			if _, _, err := cl.InsertElement(0, 0, "cd"); err != nil {
				t.Fatal(err)
			}
			if n, err := d.Count("//cd"); err != nil || n != 0 {
				t.Fatalf("original sees the clone's insert: %d, %v", n, err)
			}
		})
	}
}
