package scheme

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// TestNewTreeMatchesUnpackAdopt builds each document's tree twice: as
// NewTree writes it, and unpacked, as a labeling built alone has it. The
// two must hold the same arena, directory and filler count, the unpacked
// tree's Children must mirror its Kids, and every id's Kids must be its
// node's children in xmltree.
// The two trees then take the same random edits and clones, and every
// pair must go on agreeing, with a plain model of the lists too, and the
// unpacked tree's Children with its Kids after every step. Adopted at the
// end, it must still agree.
func TestNewTreeMatchesUnpackAdopt(t *testing.T) {
	type named struct {
		name string
		doc  *xmltree.Document
	}
	docs := []named{{"Hamlet", datagen.Hamlet()}, {"root only", &xmltree.Document{Root: xmltree.NewElement("r")}}}
	for _, spec := range datagen.Specs() {
		ds, err := datagen.Generate(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < min(2, len(ds.Files)); i++ {
			docs = append(docs, named{fmt.Sprintf("%s file %d", spec.Name, i), ds.Files[i]})
		}
	}
	chain := xmltree.NewElement("c")
	for n, i := chain, 0; i < 3000; i++ {
		n = n.AppendChild(xmltree.NewElement("c"))
	}
	docs = append(docs, named{"deep chain", &xmltree.Document{Root: chain}})
	gen := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		docs = append(docs, named{fmt.Sprintf("random %d", i), randomDoc(gen, 1+gen.Intn(300))})
	}
	for _, nd := range docs {
		name, doc := nd.name, nd.doc
		live, unpacked := NewTree(doc), NewTree(doc)
		unpacked.Unpack()
		sameTree(t, name, live, unpacked)
		if n := live.kids.Used(); n > 0 && !slices.Equal(live.kids.From(0)[:n], unpacked.kids.From(0)[:n]) {
			t.Fatalf("%s: the slabs differ", name)
		}
		ids := make(map[*xmltree.Node]int, live.Cap())
		doc.Walk(func(id int, n *xmltree.Node, _, _ int) { ids[n] = id })
		model := make([][]int, live.Cap())
		doc.Walk(func(id int, n *xmltree.Node, _, _ int) {
			for _, c := range n.Children {
				model[id] = append(model[id], ids[c])
			}
			if !slices.Equal(live.Kids(id), model[id]) {
				t.Fatalf("%s: Kids(%d) = %v, xmltree has %v", name, id, live.Kids(id), model[id])
			}
		})
		editBoth(t, name, gen, live, unpacked, model)
		if unpacked.Adopt(); unpacked.Children != nil {
			t.Fatalf("%s: Adopt kept Children", name)
		}
		sameTree(t, name+" adopted", live, unpacked)
	}
}

// randomDoc returns a document of n elements, each after the first
// appended under a random earlier one.
func randomDoc(gen *rand.Rand, n int) *xmltree.Document {
	nodes := []*xmltree.Node{xmltree.NewElement("e")}
	for len(nodes) < n {
		p := nodes[gen.Intn(len(nodes))]
		nodes = append(nodes, p.AppendChild(xmltree.NewElement("e")))
	}
	return &xmltree.Document{Root: nodes[0]}
}

// mirrors fails unless tr's Children, if it has them, hold every id's
// Kids as the run itself, with no room after it: a repack must lay them
// over the new arena, lest they keep the old one alive, and a reader's
// append must copy a list.
func mirrors(t *testing.T, name string, tr *Tree) {
	t.Helper()
	if tr.Children == nil {
		return
	}
	if len(tr.Children) != tr.Cap() {
		t.Fatalf("%s: Children holds %d lists of %d ids", name, len(tr.Children), tr.Cap())
	}
	for v, l := range tr.Children {
		if k := tr.Kids(v); !slices.Equal(l, k) || cap(l) != len(l) || len(l) > 0 && &l[0] != &k[0] {
			t.Fatalf("%s: Children[%d] = %v (cap %d) is not the run %v", name, v, l, cap(l), tr.Kids(v))
		}
	}
}

// sameDir reports whether two directories hold the same chunks.
func sameDir(a, b []*chunk) bool {
	return slices.EqualFunc(a, b, func(x, y *chunk) bool {
		return x.stamp == y.stamp && x.words == y.words && bytes.Equal(x.runs, y.runs)
	})
}

// editBoth runs 300 random steps on two trees that must agree, and on
// model: an insert, a subtree delete or, one step in ten, a clone of
// both, which later steps may edit in place of the trees. A tree with
// Children is held to its Kids after every step, the edited pair to the
// model every fifth step, and every pair every thirtieth.
func editBoth(t *testing.T, name string, gen *rand.Rand, a, b *Tree, model [][]int) {
	t.Helper()
	type family struct {
		a, b  *Tree
		model [][]int
	}
	fams := []family{{a, b, model}}
	for step := 0; step < 300; step++ {
		f := &fams[gen.Intn(len(fams))]
		v := gen.Intn(len(f.model))
		for !f.a.Alive(v) {
			v = f.a.Parent(v) // the root is never removed
		}
		switch k := gen.Intn(10); {
		case k == 0:
			c := family{f.a.Clone(), f.b.Clone(), make([][]int, len(f.model))}
			for i, l := range f.model {
				c.model[i] = slices.Clone(l)
			}
			fams = append(fams, c)
		case k < 3 && v != 0:
			if _, err := f.a.RemoveSubtree(v); err != nil {
				t.Fatal(err)
			}
			if _, err := f.b.RemoveSubtree(v); err != nil {
				t.Fatal(err)
			}
			p := f.a.Parent(v)
			f.model[p] = slices.DeleteFunc(f.model[p], func(c int) bool { return c == v })
		default:
			pos := gen.Intn(len(f.model[v]) + 1)
			id := f.a.AddChild(v, pos)
			if got := f.b.AddChild(v, pos); got != id {
				t.Fatalf("%s step %d: AddChild gave ids %d and %d", name, step, id, got)
			}
			f.model = append(f.model, nil)
			f.model[v] = slices.Insert(f.model[v], pos, id)
		}
		mirrors(t, fmt.Sprintf("%s step %d", name, step), f.a)
		mirrors(t, fmt.Sprintf("%s step %d", name, step), f.b)
		switch {
		case step%30 == 29:
			for _, f := range fams {
				agree(t, fmt.Sprintf("%s step %d", name, step), f.a, f.b, f.model)
			}
		case step%5 == 4:
			agree(t, fmt.Sprintf("%s step %d", name, step), f.a, f.b, f.model)
		}
	}
}

// agree fails unless a and b are the same tree and hold model's lists.
func agree(t *testing.T, name string, a, b *Tree, model [][]int) {
	t.Helper()
	sameTree(t, name, a, b)
	for v, want := range model {
		if a.Alive(v) && !slices.Equal(a.Kids(v), want) {
			t.Fatalf("%s: Kids(%d) = %v, model %v", name, v, a.Kids(v), want)
		}
	}
}

// sameTree fails unless a and b hold the same columns, directory, arena
// extent and bookkeeping, every id reads the same run and the same Kids,
// and Children, on either, mirror its Kids.
func sameTree(t *testing.T, name string, a, b *Tree) {
	t.Helper()
	mirrors(t, name, a)
	mirrors(t, name, b)
	switch {
	case a.Cap() != b.Cap() || a.live != b.live:
		t.Fatalf("%s: the ids differ", name)
	case !sameDir(a.dir, b.dir):
		t.Fatalf("%s: the directories differ", name)
	case a.kids.Used() != b.kids.Used() || a.kids.End() != b.kids.End() || a.kids.Room() != b.kids.Room():
		t.Fatalf("%s: the arenas differ: %d/%d/%d slots, %d/%d/%d", name,
			a.kids.Used(), a.kids.End(), a.kids.Room(), b.kids.Used(), b.kids.End(), b.kids.Room())
	case a.fillers != b.fillers || a.mark != b.mark:
		t.Fatalf("%s: fillers %d/%d, mark %d/%d", name, a.fillers, b.fillers, a.mark, b.mark)
	case a.fillers != countFillers(a):
		t.Fatalf("%s: the tree counts %d fillers, its runs have %d", name, a.fillers, countFillers(a))
	}
	for v := 0; v < a.Cap(); v++ {
		if a.Parent(v) != b.Parent(v) || a.Depth(v) != b.Depth(v) {
			t.Fatalf("%s: id %d's link differs", name, v)
		}
		if a.Alive(v) != b.Alive(v) {
			t.Fatalf("%s: id %d is alive in one tree only", name, v)
		}
		if sa, sb := a.span(v), b.span(v); sa != sb || !slices.Equal(a.Kids(v), b.Kids(v)) {
			t.Fatalf("%s: id %d reads %v at %v and %v at %v", name, v, a.Kids(v), sa, b.Kids(v), sb)
		}
	}
}
