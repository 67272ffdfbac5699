package dyndoc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/prefix"
	"repro/internal/primelbl"
	"repro/internal/scheme"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const seedDoc = `<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>`

func builders() map[string]scheme.Builder {
	return map[string]scheme.Builder{
		"V-CDBS-Containment": containment.Build(keys.VCDBS()),
		"QED-Prefix":         prefix.Build(prefix.QEDCodec()),
		"Prime":              primelbl.BuildLabeling,
	}
}

func TestInsertQueryDeleteLifecycle(t *testing.T) {
	for name, b := range builders() {
		t.Run(name, func(t *testing.T) {
			d, err := Parse(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := d.Count("//book"); err != nil || n != 3 {
				t.Fatalf("initial books = %d, %v", n, err)
			}
			// Insert a book between the two on the first shelf.
			shelves, err := d.QueryString("/library/shelf")
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := d.InsertElement(shelves[0], 1, "book")
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := d.Count("//book"); n != 4 {
				t.Fatalf("after insert: %d books", n)
			}
			if n, _ := d.Count("/library/shelf[1]/book[2]"); n != 1 {
				t.Fatalf("book[2] not found")
			}
			if got, _ := d.Name(id); got != "book" {
				t.Fatalf("Name(%d) = %q", id, got)
			}
			// The XML text reflects the edit.
			if got := d.XML(); strings.Count(got, "<book>") != 4 {
				t.Fatalf("XML out of sync: %s", got)
			}
			// Delete the whole second shelf.
			removed, err := d.DeleteSubtree(shelves[1])
			if err != nil {
				t.Fatal(err)
			}
			if removed != 2 {
				t.Fatalf("removed %d, want 2", removed)
			}
			if n, _ := d.Count("//book"); n != 3 {
				t.Fatalf("after delete: %d books", n)
			}
			if n, _ := d.Count("/library/shelf"); n != 1 {
				t.Fatalf("after delete: shelves wrong")
			}
			if got := d.XML(); strings.Count(got, "<shelf>") != 1 {
				t.Fatalf("XML out of sync after delete: %s", got)
			}
		})
	}
}

func TestDynamicSchemeNeverRelabels(t *testing.T) {
	d, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	shelves, _ := d.QueryString("/library/shelf")
	for i := 0; i < 500; i++ {
		if _, _, err := d.InsertElement(shelves[0], 1, "book"); err != nil {
			t.Fatal(err)
		}
	}
	if d.Relabeled() != 0 {
		t.Fatalf("dynamic scheme relabeled %d nodes", d.Relabeled())
	}
	if n, _ := d.Count("/library/shelf[1]/book"); n != 502 {
		t.Fatalf("books = %d", n)
	}
}

func TestStaticSchemeCountsRelabels(t *testing.T) {
	d, err := Parse(seedDoc, containment.Build(keys.VBinary()))
	if err != nil {
		t.Fatal(err)
	}
	shelves, _ := d.QueryString("/library/shelf")
	if _, relabeled, err := d.InsertElement(shelves[0], 1, "book"); err != nil || relabeled == 0 {
		t.Fatalf("relabeled = %d, %v", relabeled, err)
	}
	if d.Relabeled() == 0 {
		t.Fatal("relabel counter not updated")
	}
	// Queries still correct after the relabel.
	if n, _ := d.Count("//book"); n != 4 {
		t.Fatalf("books = %d", n)
	}
}

func TestErrors(t *testing.T) {
	d, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.InsertElement(-1, 0, "x"); err == nil {
		t.Error("bad parent accepted")
	}
	if _, _, err := d.InsertElement(0, 0, ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := d.DeleteSubtree(0); err == nil {
		t.Error("root deletion accepted")
	}
	if _, err := d.DeleteSubtree(999); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := d.Name(999); err == nil {
		t.Error("Name on bad id accepted")
	}
	if _, err := d.QueryString("///"); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := Parse("<broken", containment.Build(keys.VCDBS())); err == nil {
		t.Error("bad XML accepted")
	}
	// Deleting a node twice fails (id dead).
	shelves, _ := d.QueryString("/library/shelf")
	if _, err := d.DeleteSubtree(shelves[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteSubtree(shelves[1]); err == nil {
		t.Error("double deletion accepted")
	}
}

// TestIncrementalMatchesRebuild drives random edits and, after each
// batch, compares the incrementally maintained index against an
// engine rebuilt from scratch over the serialised document.
func TestIncrementalMatchesRebuild(t *testing.T) {
	gen := rand.New(rand.NewSource(9))
	names := []string{"a", "b", "c"}
	queries := []string{"//a", "//b/c", "/root/*", "//a/preceding-sibling::b", "//c[1]"}
	d, err := Parse("<root><a/><b/></root>", containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 15; batch++ {
		for op := 0; op < 10; op++ {
			tr := d.Labeling().Tree()
			if gen.Intn(4) == 0 && d.Len() > 3 {
				// Delete a random live non-root node.
				for {
					v := gen.Intn(tr.Cap())
					if tr.Alive(v) && tr.Parent(v) != -1 {
						if _, err := d.DeleteSubtree(v); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				continue
			}
			var parent int
			for {
				parent = gen.Intn(tr.Cap())
				if tr.Alive(parent) {
					break
				}
			}
			pos := gen.Intn(len(tr.Children[parent]) + 1)
			if _, _, err := d.InsertElement(parent, pos, names[gen.Intn(len(names))]); err != nil {
				t.Fatal(err)
			}
		}
		// Rebuild from the serialised text with a fresh labeling.
		fresh, err := xmltree.ParseString(d.XML())
		if err != nil {
			t.Fatal(err)
		}
		lab, err := containment.New(keys.VCDBS(), fresh)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := xpath.NewEngine(fresh, lab)
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range queries {
			q := xpath.MustParse(qs)
			live, err := d.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := eng.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			// Ids differ between the two worlds; counts and the
			// matched names in order must agree.
			if len(live) != len(rebuilt) {
				t.Fatalf("batch %d %q: live %d matches, rebuilt %d", batch, qs, len(live), len(rebuilt))
			}
			liveNames := make([]string, len(live))
			for i, id := range live {
				liveNames[i], _ = d.Name(id)
			}
			rebuiltNames := make([]string, len(rebuilt))
			for i, id := range rebuilt {
				rebuiltNames[i] = fresh.Nodes()[id].Name
			}
			if !reflect.DeepEqual(liveNames, rebuiltNames) {
				t.Fatalf("batch %d %q: %v vs %v", batch, qs, liveNames, rebuiltNames)
			}
		}
	}
}

func TestInsertTree(t *testing.T) {
	for name, b := range builders() {
		t.Run(name, func(t *testing.T) {
			d, err := Parse(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			frag := xmltree.NewElement("shelf")
			b1 := frag.AppendChild(xmltree.NewElement("book"))
			b1.AppendChild(xmltree.NewElement("title"))
			frag.AppendChild(xmltree.NewElement("book"))

			ids, _, err := d.InsertTree(0, 1, frag)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 4 {
				t.Fatalf("got %d ids", len(ids))
			}
			if n, _ := d.Count("/library/shelf"); n != 3 {
				t.Fatalf("shelves = %d", n)
			}
			if n, _ := d.Count("/library/shelf[2]/book"); n != 2 {
				t.Fatalf("new shelf books = %d", n)
			}
			if n, _ := d.Count("//title"); n != 1 {
				t.Fatalf("titles = %d", n)
			}
			// The fragment is an independent copy: mutating the
			// original must not affect the document.
			frag.AppendChild(xmltree.NewElement("book"))
			if n, _ := d.Count("/library/shelf[2]/book"); n != 2 {
				t.Fatal("fragment aliased into the document")
			}
			// Deleting the fragment root removes the whole batch.
			removed, err := d.DeleteSubtree(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			if removed != 4 {
				t.Fatalf("removed %d", removed)
			}
		})
	}
}

func TestInsertTreeErrors(t *testing.T) {
	d, err := Parse(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.InsertTree(0, 0, nil); err == nil {
		t.Error("nil fragment accepted")
	}
	if _, _, err := d.InsertTree(0, 0, xmltree.NewText("x")); err == nil {
		t.Error("text fragment accepted")
	}
	if _, _, err := d.InsertTree(-1, 0, xmltree.NewElement("x")); err == nil {
		t.Error("bad parent accepted")
	}
}

// TestRejectedInsertLeavesStateConsistent is the regression test for
// the update-path atomicity bug: InsertElement/InsertTree used to
// mutate the labeling before validating the xmltree position, so a
// rejected insert left a phantom labeled node with no tree node
// behind it. After a rejected insert, the node count, the index and
// the tree/labeling agreement must all be exactly as before.
func TestRejectedInsertLeavesStateConsistent(t *testing.T) {
	frag := func() *xmltree.Node {
		f := xmltree.NewElement("shelf")
		f.AppendChild(xmltree.NewElement("book"))
		return f
	}
	for name, b := range builders() {
		t.Run(name, func(t *testing.T) {
			d, err := Parse(seedDoc, b)
			if err != nil {
				t.Fatal(err)
			}
			snapState := func() (int, int, string) {
				books, err := d.Count("//book")
				if err != nil {
					t.Fatal(err)
				}
				return d.Len(), books, d.XML()
			}
			wantLen, wantBooks, wantXML := snapState()
			shelves, err := d.QueryString("/library/shelf")
			if err != nil {
				t.Fatal(err)
			}
			// Out-of-range positions, negative and too large, on both
			// insert paths.
			for _, pos := range []int{-1, 3, 99} {
				if _, _, err := d.InsertElement(shelves[0], pos, "book"); err == nil {
					t.Fatalf("InsertElement pos %d accepted", pos)
				}
				if _, _, err := d.InsertTree(shelves[0], pos, frag()); err == nil {
					t.Fatalf("InsertTree pos %d accepted", pos)
				}
				gotLen, gotBooks, gotXML := snapState()
				if gotLen != wantLen || gotBooks != wantBooks || gotXML != wantXML {
					t.Fatalf("pos %d: state drifted: len %d->%d, books %d->%d", pos, wantLen, gotLen, wantBooks, gotBooks)
				}
			}
			// The document still accepts valid edits afterwards, and
			// ids stay in lockstep with the tree.
			id, _, err := d.InsertElement(shelves[0], 1, "book")
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := d.Name(id); got != "book" {
				t.Fatalf("Name(%d) = %q after rejected inserts", id, got)
			}
			if gotLen, _, _ := snapState(); gotLen != wantLen+1 {
				t.Fatalf("valid insert after rejections: len %d, want %d", gotLen, wantLen+1)
			}
		})
	}
}
