package containment

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// doc builds <r><a/><b><c/></b><d/></r>: ids r=0 a=1 b=2 c=3 d=4.
func doc(t *testing.T) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString("<r><a/><b><c/></b><d/></r>")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIntervalAssignment(t *testing.T) {
	l, err := New(keys.VBinary(), doc(t))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2 style: root spans everything; b contains c.
	codec := referenceOf(keys.VBinary())
	val := func(k keys.Key) string {
		return k.(interface{ String() string }).String()
	}
	_ = val
	if codec.Compare(l.StartKey(0), l.StartKey(1)) >= 0 {
		t.Error("root start not first")
	}
	if codec.Compare(l.EndKey(3), l.EndKey(2)) >= 0 {
		t.Error("c's end not inside b's")
	}
	if !l.IsAncestor(0, 3) || !l.IsAncestor(2, 3) || l.IsAncestor(1, 3) {
		t.Error("ancestor intervals wrong")
	}
	if !l.IsParent(2, 3) || l.IsParent(0, 3) {
		t.Error("parent check wrong")
	}
	if !l.Before(1, 2) || l.Before(4, 1) {
		t.Error("document order wrong")
	}
	if !l.IsSibling(1, 2) || l.IsSibling(1, 3) {
		t.Error("sibling check wrong")
	}
	if l.Level(3) != 3 || l.Level(0) != 1 {
		t.Error("levels wrong")
	}
}

func TestInsertDynamicKeepsNeighbors(t *testing.T) {
	l, err := New(keys.VCDBS(), doc(t))
	if err != nil {
		t.Fatal(err)
	}
	codec := referenceOf(keys.VCDBS())
	beforeStart := l.StartKey(2)
	beforeEnd := l.EndKey(1)
	id, relabeled, err := l.InsertChildAt(0, 1) // between a and b
	if err != nil {
		t.Fatal(err)
	}
	if relabeled != 0 {
		t.Fatalf("relabeled %d", relabeled)
	}
	// New interval sits strictly between a.end and b.start
	// (Corollary 3.3), and the neighbors' keys are untouched.
	if codec.Compare(beforeEnd, l.StartKey(id)) >= 0 ||
		codec.Compare(l.StartKey(id), l.EndKey(id)) >= 0 ||
		codec.Compare(l.EndKey(id), beforeStart) >= 0 {
		t.Error("inserted interval out of place")
	}
	if codec.Compare(l.StartKey(2), beforeStart) != 0 || codec.Compare(l.EndKey(1), beforeEnd) != 0 {
		t.Error("neighbor keys changed")
	}
	if !l.IsParent(0, id) || !l.IsSibling(id, 1) {
		t.Error("inserted node relationships wrong")
	}
}

func TestInsertStaticRelabelCount(t *testing.T) {
	l, err := New(keys.VBinary(), doc(t))
	if err != nil {
		t.Fatal(err)
	}
	// Inserting between a and b shifts every value from b.start on:
	// b, c, d and the root's end change; a is untouched.
	_, relabeled, err := l.InsertChildAt(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if relabeled != 4 {
		t.Errorf("relabeled = %d, want 4 (b, c, d, r)", relabeled)
	}
	// Appending at the very end relabels only the root (its end
	// moves).
	l2, _ := New(keys.VBinary(), doc(t))
	_, relabeled, err = l2.InsertChildAt(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if relabeled != 1 {
		t.Errorf("append relabeled = %d, want 1 (root)", relabeled)
	}
}

func TestInsertSiblingBeforeRoot(t *testing.T) {
	l, err := New(keys.VCDBS(), doc(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := scheme.InsertSiblingBefore(l, 0); err == nil {
		t.Error("sibling before root accepted")
	}
}

func TestTotalLabelBitsGrowsWithInsert(t *testing.T) {
	l, err := New(keys.QED(), doc(t))
	if err != nil {
		t.Fatal(err)
	}
	before := l.TotalLabelBits()
	if _, _, err := l.InsertChildAt(2, 0); err != nil {
		t.Fatal(err)
	}
	if l.TotalLabelBits() <= before {
		t.Error("label bits did not grow")
	}
	if l.Name() != "QED-Containment" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestEmptyDocumentRejected(t *testing.T) {
	if _, err := New(keys.VCDBS(), &xmltree.Document{}); err == nil {
		t.Error("empty document accepted")
	}
}
