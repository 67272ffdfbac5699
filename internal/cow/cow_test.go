package cow

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// column returns a column built over vs, and its slots as a slice.
func column(vs ...int) Column[int] { return NewColumn(slices.Clone(vs)) }

func TestAppendFirstClaimerWritesInPlace(t *testing.T) {
	base := column(1, 2, 3)
	base.Append(4) // opens the tail: one piece, three slots of it free

	// Three holders of one column at one length: a snapshot that only
	// reads, and two that append.
	snap, a, b := base, base, base
	a.Append(10)
	if a.slot(3) != snap.slot(3) || a.mark != base.mark || a.Cap() != base.Cap() {
		t.Fatal("the first holder to claim the free slot should append in place")
	}
	b.Append(20)
	if b.slot(3) == snap.slot(3) || b.mark == base.mark || b.slot(0) != snap.slot(0) {
		t.Fatal("the second holder must move its partial piece, and nothing else, under a new mark")
	}
	if !slices.Equal(a.Flat(), []int{1, 2, 3, 4, 10}) || !slices.Equal(b.Flat(), []int{1, 2, 3, 4, 20}) || !slices.Equal(snap.Flat(), []int{1, 2, 3, 4}) {
		t.Fatalf("a = %v, b = %v, snap = %v", a.Flat(), b.Flat(), snap.Flat())
	}

	// A holder that is behind the mark — a clone of an older snapshot,
	// or the clone taken after a discarded one — also moves.
	late := snap
	late.Append(30)
	if late.slot(4) == a.slot(4) || a.At(4) != 10 {
		t.Fatalf("a late holder overwrote a claimed slot: a = %v", a.Flat())
	}

	// Each side keeps handing out its own slots afterwards.
	a.Append(11)
	b.Append(21)
	if a.slot(3) != snap.slot(3) || !slices.Equal(a.Flat(), []int{1, 2, 3, 4, 10, 11}) || !slices.Equal(b.Flat(), []int{1, 2, 3, 4, 20, 21}) {
		t.Fatalf("a = %v, b = %v", a.Flat(), b.Flat())
	}
}

// TestGrowFullArrayAndZeroSlots: growing past what is allocated adds
// chunks — one piece, then as much again as the tail holds, up to
// maxPieces, or the whole request if that is more — and moves no slot;
// what it adds is zero.
func TestGrowFullArrayAndZeroSlots(t *testing.T) {
	c := column(1, 2)
	var at []*int
	pieces := []int{0}
	for c.Len() < 128*pieceLen {
		n := c.Len()
		c.Grow(3)
		for i := n; i < c.Len(); i++ {
			if c.At(i) != 0 {
				t.Fatalf("grown slot %d holds %d", i, c.At(i))
			}
			c.Set(i, i)
			at = append(at, c.slot(i))
		}
		if len(c.tail) != pieces[len(pieces)-1] {
			pieces = append(pieces, len(c.tail))
		}
	}
	if want := []int{0, 1, 2, 4, 8, 16, 32, 64, 96, 128}; !slices.Equal(pieces, want) || c.Cap() != 2+128*pieceLen {
		t.Fatalf("the tail grew through %v pieces, want %v", pieces, want)
	}
	for i, p := range at {
		if c.slot(i+2) != p || *p != i+2 {
			t.Fatalf("slot %d moved, or holds %d", i+2, *p)
		}
	}
	big := column(7)
	big.Grow(5 * maxPieces * pieceLen)
	if big.Cap() != 1+5*maxPieces*pieceLen || len(big.tail) != 5*maxPieces || big.At(0) != 7 {
		t.Fatalf("one large request: room for %d in %d pieces", big.Cap(), len(big.tail))
	}
	var zero Column[string]
	zero.Append("x")
	if zero.Len() != 1 || zero.At(0) != "x" || zero.Cap() != pieceLen {
		t.Fatalf("the zero column after one append: %d of %d slots", zero.Len(), zero.Cap())
	}
}

// FuzzColumnFamily runs a history of appends, grows, clones and drops
// over a family of columns descended from one, every holder mirrored
// by a plain slice, while snapshots taken along the way are read on
// other goroutines: no holder ever sees another's writes, and under
// -race no write lands where a snapshot can read. A byte of the
// history picks the holder (high bits) and what it does (low three).
func FuzzColumnFamily(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 5, 8, 1, 9, 6, 0, 14, 2})
	f.Add([]byte{3, 3, 3, 3, 3, 5, 0, 8, 5, 8, 16, 0, 7, 7, 5, 6})
	f.Add(bytes.Repeat([]byte{0, 5, 8, 1, 6, 16, 3}, 40))
	f.Fuzz(func(t *testing.T, history []byte) {
		type holder struct {
			col  Column[int]
			want []int
		}
		check := func(what string, col Column[int], want []int) {
			if col.Len() != len(want) || col.Cap() < col.Len() {
				t.Errorf("%s: %d of %d slots, want %d", what, col.Len(), col.Cap(), len(want))
				return
			}
			for i, w := range want {
				if got := col.At(i); got != w {
					t.Errorf("%s: slot %d holds %d, want %d", what, i, got, w)
					return
				}
			}
		}
		family := []*holder{{col: column(-1, -2, -3), want: []int{-1, -2, -3}}}
		var readers sync.WaitGroup
		defer readers.Wait()
		for next, op := range history {
			h := family[int(op>>3)%len(family)]
			switch op & 7 {
			case 0, 1, 2: // append
				h.col.Append(next)
				h.want = append(h.want, next)
			case 3, 4: // grow, by up to two chunks' worth, and fill
				n := h.col.Len()
				h.col.Grow(int(op>>3) * 5)
				for i := n; i < h.col.Len(); i++ {
					h.col.Set(i, next+i)
					h.want = append(h.want, next+i)
				}
			case 5: // clone: from here on the two diverge
				family = append(family, &holder{h.col, slices.Clone(h.want)})
			case 6: // drop, unless it is the last
				if i := slices.Index(family, h); len(family) > 1 {
					family = slices.Delete(family, i, i+1)
				}
			case 7: // a snapshot, read while the history goes on
				snap, want := h.col, slices.Clone(h.want)
				readers.Add(1)
				go func() {
					defer readers.Done()
					check("snapshot", snap, want)
					if !slices.Equal(snap.Flat(), want) {
						t.Errorf("snapshot: Flat = %v, want %v", snap.Flat(), want)
					}
				}()
			}
			check("edited holder", h.col, h.want)
		}
		for _, h := range family {
			check("holder at the end", h.col, h.want)
		}
	})
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
