package registry

import (
	"math/rand"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// randomShape builds a random element fragment of about n nodes.
func randomShape(gen *rand.Rand, n int) *xmltree.Node {
	root := xmltree.NewElement("frag")
	nodes := []*xmltree.Node{root}
	for len(nodes) < n {
		p := nodes[gen.Intn(len(nodes))]
		c := xmltree.NewElement("item")
		p.AppendChild(c)
		nodes = append(nodes, c)
	}
	return root
}

func TestInsertSubtreeConformance(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(60, 13)
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			gen := rand.New(rand.NewSource(19))
			fragments := 6
			if entry.Name == "Prime" {
				fragments = 2 // node-by-node SC recomputation is slow by design
			}
			for f := 0; f < fragments; f++ {
				tr := lab.Tree()
				var parent int
				for {
					parent = gen.Intn(tr.Cap())
					if tr.Alive(parent) {
						break
					}
				}
				pos := gen.Intn(len(tr.Kids(parent)) + 1)
				shape := randomShape(gen, 2+gen.Intn(12))
				ids, relabeled, err := lab.InsertSubtree(parent, pos, shape)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != shape.SubtreeSize() {
					t.Fatalf("got %d ids for a %d-node fragment", len(ids), shape.SubtreeSize())
				}
				if entry.Dynamic && entry.Name != "Prime" && relabeled != 0 {
					t.Fatalf("dynamic scheme relabeled %d on bulk insert", relabeled)
				}
				// The fragment root must be the pos-th child of parent
				// and its ids internally consistent.
				if !lab.IsParent(parent, ids[0]) {
					t.Fatal("fragment root not a child of parent")
				}
				for _, id := range ids[1:] {
					if !lab.IsAncestor(ids[0], id) {
						t.Fatalf("fragment node %d not under fragment root", id)
					}
				}
			}
			checkAgainstOracle(t, lab)
		})
	}
}

func TestInsertSubtreeErrors(t *testing.T) {
	doc := randomDoc(10, 2)
	for _, entry := range All() {
		lab, err := entry.Build(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := lab.InsertSubtree(0, 0, nil); err == nil {
			t.Errorf("%s: nil shape accepted", entry.Name)
		}
		if _, _, err := lab.InsertSubtree(-1, 0, xmltree.NewElement("x")); err == nil {
			t.Errorf("%s: bad parent accepted", entry.Name)
		}
	}
}

// TestBulkKeysStayCompact checks the point of NBetween: inserting a
// 200-node fragment in one batch produces far smaller labels than 200
// sequential insertions at the same spot.
func TestBulkKeysStayCompact(t *testing.T) {
	gen := rand.New(rand.NewSource(4))
	shape := randomShape(gen, 200)

	build := func() *containment.Labeling {
		doc, err := xmltree.ParseString("<r><a/><b/></r>")
		if err != nil {
			t.Fatal(err)
		}
		lab, err := containment.New(keys.VCDBS(), doc)
		if err != nil {
			t.Fatal(err)
		}
		return lab
	}

	bulk := build()
	if _, _, err := bulk.InsertSubtree(0, 1, shape); err != nil {
		t.Fatal(err)
	}

	sequential := build()
	for i := 0; i < 200; i++ {
		if _, _, err := sequential.InsertChildAt(0, 1); err != nil {
			t.Fatal(err)
		}
	}

	bb, sb := bulk.TotalLabelBits(), sequential.TotalLabelBits()
	if bb*2 > sb {
		t.Errorf("bulk insert %d bits not clearly below sequential %d bits", bb, sb)
	}
}
