package registry

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// TestLookupUnknownScheme pins the typed failure mode of Lookup: the
// sentinel matches via errors.Is, near-miss names get a did-you-mean
// suggestion and hopeless names get the known-name list instead.
func TestLookupUnknownScheme(t *testing.T) {
	_, err := Lookup("V-CDBS-Containmen") // one deletion away
	if err == nil {
		t.Fatal("near-miss name accepted")
	}
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("errors.Is(err, ErrUnknownScheme) = false for %v", err)
	}
	var use *UnknownSchemeError
	if !errors.As(err, &use) {
		t.Fatalf("error %T is not *UnknownSchemeError", err)
	}
	if use.Suggestion != "V-CDBS-Containment" {
		t.Fatalf("Suggestion = %q, want V-CDBS-Containment", use.Suggestion)
	}
	if !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("near-miss message lacks a suggestion: %q", err)
	}

	_, err = Lookup("bogus")
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("errors.Is(err, ErrUnknownScheme) = false for %v", err)
	}
	if !errors.As(err, &use) {
		t.Fatalf("error %T is not *UnknownSchemeError", err)
	}
	if use.Suggestion != "" {
		t.Fatalf("Suggestion = %q for a hopeless name, want none", use.Suggestion)
	}
	if !strings.Contains(err.Error(), "known:") {
		t.Fatalf("hopeless-name message lacks the known list: %q", err)
	}
}

// insertShapes inserts the shapes as consecutive children of parent
// starting at pos, one InsertSubtree call per shape, returning the
// flattened preorder ids and the total re-label count — the sequential
// path every scheme supports.
func insertShapes(t *testing.T, lab scheme.Labeling, parent, pos int, shapes []*xmltree.Node) ([]int, int) {
	t.Helper()
	var ids []int
	relabeled := 0
	for k, shape := range shapes {
		fids, rl, err := lab.InsertSubtree(parent, pos+k, shape)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, fids...)
		relabeled += rl
	}
	return ids, relabeled
}

// TestBatchInsertConformance checks that for every scheme a batch
// insert of n siblings/subtrees is equivalent to n sequential inserts:
// the same ids in the same order, the same predicate answers, and no
// re-labeling for the dynamic schemes.
func TestBatchInsertConformance(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(40, 7)
			seq, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}

			// A run mixing leaf siblings with larger subtrees.
			gen := rand.New(rand.NewSource(23))
			shapes := []*xmltree.Node{
				xmltree.NewElement("s"),
				randomShape(gen, 4),
				xmltree.NewElement("s"),
				randomShape(gen, 7),
				xmltree.NewElement("s"),
			}
			parent := 0
			pos := len(seq.Tree().Children[parent]) / 2

			seqIDs, _ := insertShapes(t, seq, parent, pos, shapes)

			var batIDs []int
			idss, batRelabeled, err := bat.InsertSubtrees(parent, pos, shapes)
			if err != nil {
				t.Fatal(err)
			}
			if len(idss) != len(shapes) {
				t.Fatalf("got %d id slices for %d shapes", len(idss), len(shapes))
			}
			for k, fids := range idss {
				if len(fids) != shapes[k].SubtreeSize() {
					t.Fatalf("fragment %d: %d ids for %d nodes", k, len(fids), shapes[k].SubtreeSize())
				}
				batIDs = append(batIDs, fids...)
			}

			if len(seqIDs) != len(batIDs) {
				t.Fatalf("sequential created %d ids, batch %d", len(seqIDs), len(batIDs))
			}
			for i := range seqIDs {
				if seqIDs[i] != batIDs[i] {
					t.Fatalf("id %d: sequential %d, batch %d", i, seqIDs[i], batIDs[i])
				}
			}
			if entry.Dynamic && entry.Name != "Prime" && batRelabeled != 0 {
				t.Fatalf("dynamic scheme relabeled %d on batch insert", batRelabeled)
			}

			// Both documents must answer every predicate identically —
			// each is checked against the structural oracle, and a pair
			// sample is compared across the two labelings directly.
			checkAgainstOracle(t, seq)
			checkAgainstOracle(t, bat)
			n := bat.Tree().Len()
			for trial := 0; trial < 2000; trial++ {
				u, v := gen.Intn(n), gen.Intn(n)
				if seq.IsAncestor(u, v) != bat.IsAncestor(u, v) {
					t.Fatalf("IsAncestor(%d,%d) differs between sequential and batch", u, v)
				}
				if seq.Before(u, v) != bat.Before(u, v) {
					t.Fatalf("Before(%d,%d) differs between sequential and batch", u, v)
				}
			}
		})
	}
}

// TestCloneIndependence checks that edits on the original never leak
// into a clone: the snapshot layer's correctness rests on exactly this.
func TestCloneIndependence(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(30, 11)
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			clone := lab.CloneLabeling()
			wantLen := clone.Len()

			// Edit the original: a child insert and a subtree insert.
			if _, _, err := lab.InsertChildAt(0, 0); err != nil {
				t.Fatal(err)
			}
			gen := rand.New(rand.NewSource(3))
			if _, _, err := lab.InsertSubtree(0, 1, randomShape(gen, 5)); err != nil {
				t.Fatal(err)
			}

			if clone.Len() != wantLen {
				t.Fatalf("clone length changed from %d to %d after edits to the original", wantLen, clone.Len())
			}
			checkAgainstOracle(t, clone)

			// And the other direction: editing the clone must not move
			// the original.
			origLen := lab.Len()
			if _, _, err := clone.InsertChildAt(0, 0); err != nil {
				t.Fatal(err)
			}
			if lab.Len() != origLen {
				t.Fatalf("original length changed after editing the clone")
			}
			checkAgainstOracle(t, lab)

			// Deletions in the original must not resurrect or kill
			// anything in the clone either. The oracle helper assumes a
			// dense id space, so the deletion comes last and only the
			// clone (which never saw it) is re-checked.
			cloneLen := clone.Len()
			if kids := lab.Tree().Children[0]; len(kids) > 2 {
				if _, err := lab.DeleteSubtree(kids[len(kids)-1]); err != nil {
					t.Fatal(err)
				}
			}
			if clone.Len() != cloneLen {
				t.Fatalf("clone length changed from %d to %d after a delete in the original", cloneLen, clone.Len())
			}
			checkAgainstOracle(t, clone)
		})
	}
}
