package dyndoc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// TestEditScratchStorm runs fragment inserts and subtree deletes at
// once on sibling clones of one family and on independent documents,
// each checked against its own model. An insert's sink and a delete's
// doomed set with its name lookup are pooled, shared by every document
// in the process: a set that resolved a name through another
// document's, or a stale, *Document would leave a deleted id in the
// index, and a sink bound to another labeling would misplace a
// fragment. Each writer names its fragments after itself, so the same
// id holds a different name in every document. Run it under -race.
func TestEditScratchStorm(t *testing.T) {
	const writers, steps, every = 8, 120, 20
	// Each writer's edits, and its model after every every-th, drawn
	// here on the test's goroutine.
	scripts, models := make([][]Edit, writers), make([][]*model, writers)
	for w := range scripts {
		own := fmt.Sprintf("w%d", w)
		m, rng := newModel(miniPlay()), rand.New(rand.NewSource(int64(w)))
		for s := 1; s <= steps; s++ {
			var e Edit
			if live := m.liveIDs(false); rng.Intn(5) < 2 && len(live) > 40 {
				e = Edit{Op: OpDeleteSubtree, Node: live[1+rng.Intn(len(live)-1)]} // id 0 is the root
			} else {
				frag := xmltree.NewElement(own)
				frag.AppendChild(xmltree.NewElement(own + "-line")).AppendChild(xmltree.NewText(own))
				frag.AppendChild(xmltree.NewElement("line"))
				elems := m.liveIDs(true)
				parent := elems[rng.Intn(len(elems))]
				e = Edit{Op: OpInsertTree, Parent: parent, Pos: rng.Intn(len(m.nodes[parent].Children) + 1), Fragment: frag}
			}
			m.apply(t, e)
			scripts[w] = append(scripts[w], e)
			if s%every == 0 {
				models[w] = append(models[w], m.clone())
			}
		}
	}

	base, err := New(miniPlay(), containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range scripts {
		// Even writers edit clones of base, odd ones documents of their own.
		var d *Document
		if w%2 == 0 {
			d, err = base.Clone()
		} else {
			d, err = New(miniPlay(), containment.Build(keys.VCDBS()))
		}
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := fmt.Sprintf("w%d", w)
			paths := []string{"//" + own, "//" + own + "-line", "//speech", "//line"}
			rng := rand.New(rand.NewSource(int64(w)))
			for i, e := range scripts[w] {
				var err error
				if e.Op == OpDeleteSubtree {
					_, err = d.DeleteSubtree(e.Node)
				} else {
					_, _, err = d.InsertTree(e.Parent, e.Pos, e.Fragment)
				}
				if err != nil {
					t.Errorf("writer %d, edit %d: %v", w, i+1, err)
					return
				}
				if (i+1)%every == 0 {
					models[w][i/every].check(t, fmt.Sprintf("writer %d, edit %d", w, i+1), d, paths, rng, 16)
				}
			}
		}()
	}
	wg.Wait()
}
