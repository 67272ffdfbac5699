package registry

import (
	"math/rand"
	"testing"
)

// TestDeletionNeverRelabels exercises Section 5.2.1 on every scheme:
// deleting subtrees leaves the remaining predicates exactly consistent
// with the structural truth, with no label changes.
func TestDeletionNeverRelabels(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(100, 31)
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			tr := lab.Tree()
			gen := rand.New(rand.NewSource(17))
			removedTotal := 0
			for i := 0; i < 12; i++ {
				// Pick a live non-root node.
				var victim int
				for {
					victim = gen.Intn(tr.Cap())
					if tr.Alive(victim) && tr.Parent(victim) != -1 {
						break
					}
				}
				want := tr.SubtreeSize(victim)
				removed, err := lab.DeleteSubtree(victim)
				if err != nil {
					t.Fatal(err)
				}
				if removed != want {
					t.Fatalf("DeleteSubtree removed %d, want %d", removed, want)
				}
				removedTotal += removed
				if tr.Alive(victim) {
					t.Fatal("victim still alive")
				}
			}
			if lab.Len() != tr.Cap()-removedTotal {
				t.Fatalf("Len = %d after removing %d of %d", lab.Len(), removedTotal, tr.Cap())
			}
			// Remaining nodes must still agree with the oracle.
			live := make([]int, 0, lab.Len())
			for v := 0; v < tr.Cap(); v++ {
				if tr.Alive(v) {
					live = append(live, v)
				}
			}
			order := tr.PreOrder()
			pos := map[int]int{}
			for i, v := range order {
				pos[v] = i
			}
			for trial := 0; trial < 1500; trial++ {
				u := live[gen.Intn(len(live))]
				v := live[gen.Intn(len(live))]
				if u == v {
					continue
				}
				if got, want := lab.IsAncestor(u, v), tr.IsAncestorStructural(u, v); got != want {
					t.Fatalf("IsAncestor(%d,%d) = %v, want %v", u, v, got, want)
				}
				if got, want := lab.Before(u, v), pos[u] < pos[v]; got != want {
					t.Fatalf("Before(%d,%d) = %v, want %v", u, v, got, want)
				}
			}
			// Storage accounting shrinks with deletion.
			if lab.TotalLabelBits() <= 0 {
				t.Fatal("no label storage left")
			}
			// Deleting the root empties the document.
			root := order[0]
			before := lab.Len()
			removed, err := lab.DeleteSubtree(root)
			if err != nil {
				t.Fatal(err)
			}
			if removed != before || lab.Len() != 0 {
				t.Fatalf("root deletion removed %d of %d, %d left", removed, before, lab.Len())
			}
			// Deleting a dead node fails.
			if _, err := lab.DeleteSubtree(root); err == nil {
				t.Fatal("double deletion accepted")
			}
		})
	}
}

// TestInsertAfterDelete mixes deletions and insertions.
func TestInsertAfterDelete(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(40, 41)
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			tr := lab.Tree()
			// Delete the root's first child's subtree, then insert a
			// fresh node in its place.
			first := tr.Children[0][0]
			if _, err := lab.DeleteSubtree(first); err != nil {
				t.Fatal(err)
			}
			id, _, err := lab.InsertChildAt(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !lab.IsParent(0, id) {
				t.Error("fresh node not a child of root")
			}
			if len(tr.Children[0]) == 0 || tr.Children[0][0] != id {
				t.Error("fresh node not first child")
			}
		})
	}
}
