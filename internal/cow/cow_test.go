package cow

import (
	"slices"
	"testing"
)

// sameArray reports whether two slices start at the same address.
func sameArray(a, b []int) bool { return &a[0] == &b[0] }

func TestAppendFirstClaimerWritesInPlace(t *testing.T) {
	base := make([]int, 3, 8)
	copy(base, []int{1, 2, 3})
	mark := NewMark(len(base))

	// Three holders of one array at one length: a snapshot that only
	// reads, and two that append.
	snap, a, b := base, base, base
	ma, mb := mark, mark

	a = Append(&ma, a, 10)
	if !sameArray(a, base) || ma != mark {
		t.Fatal("the first holder to claim the free slot should append in place")
	}
	b = Append(&mb, b, 20)
	if sameArray(b, base) || mb == mark {
		t.Fatal("the second holder must move to a private array under a new mark")
	}
	if !slices.Equal(a, []int{1, 2, 3, 10}) || !slices.Equal(b, []int{1, 2, 3, 20}) || !slices.Equal(snap, []int{1, 2, 3}) {
		t.Fatalf("a = %v, b = %v, snap = %v", a, b, snap)
	}

	// A holder that is behind the mark — a clone of an older snapshot,
	// or the clone taken after a discarded one — also moves.
	late, ml := snap, mark
	late = Append(&ml, late, 30)
	if sameArray(late, base) || a[3] != 10 {
		t.Fatalf("a late holder overwrote a claimed slot: a = %v", a)
	}

	// Each array keeps handing out its own slots afterwards.
	a = Append(&ma, a, 11)
	b = Append(&mb, b, 21)
	if !sameArray(a, base) || !slices.Equal(a, []int{1, 2, 3, 10, 11}) || !slices.Equal(b, []int{1, 2, 3, 20, 21}) {
		t.Fatalf("a = %v, b = %v", a, b)
	}
}

func TestGrowFullArrayAndZeroSlots(t *testing.T) {
	s := []int{1, 2}
	m := NewMark(2)
	old := m
	s = Grow(&m, s[:2:2], 3)
	if m == old || !slices.Equal(s, []int{1, 2, 0, 0, 0}) {
		t.Fatalf("grown past capacity: %v", s)
	}
	got := Grow(&m, s, cap(s)-len(s))
	if !sameArray(got, s) || len(got) != cap(s) {
		t.Fatal("free slots of a private array should be claimed in place")
	}
	for _, v := range got[len(s):] {
		if v != 0 {
			t.Fatalf("claimed slots are not zero: %v", got)
		}
	}
}

func TestOwner(t *testing.T) {
	a := NewOwner[string]()
	if a.Refresh() || !a.Has("x") {
		t.Fatal("a holder that was never cloned owns every list")
	}
	b := a.Fork()
	if b.Refresh() || b.Has("x") {
		t.Fatal("a clone owns nothing yet")
	}
	if !a.Refresh() || a.Has("x") {
		t.Fatal("being cloned must cost the original its lists")
	}
	a.Add("x")
	b.Add("y")
	if a.Refresh() || b.Refresh() || !a.Has("x") || a.Has("y") || !b.Has("y") || b.Has("x") {
		t.Fatal("each side owns exactly what it copied since the clone")
	}
	c := b.Fork()
	if !a.Refresh() || !b.Refresh() || a.Has("x") || b.Has("y") || c.Has("y") {
		t.Fatal("a later clone anywhere in the family resets every owner")
	}
}
