package cow

import (
	"slices"
	"testing"
)

// TestArenaChunks walks an arena over the three ways a run can meet the
// end of a chunk — it fills the chunk exactly, it would straddle the
// end, it is longer than any chunk the arena opens unasked — and then
// goes on in a copy that lost the tail to its original. Every run lies
// whole in one chunk, reads back as it was put, and no step moves a run
// put before it. The walk runs at the geometry of keys.Arena's label
// bytes and of scheme.Tree's child ids.
func TestArenaChunks(t *testing.T) {
	t.Run("bytes", func(t *testing.T) {
		chunkWalk(t, NewArena[byte](16, 256), func(i int) byte { return byte(1 + i%255) })
	})
	t.Run("ids", func(t *testing.T) {
		chunkWalk(t, NewArena[int](12, 64), func(i int) int { return i + 1 })
	})
}

func chunkWalk[T comparable](t *testing.T, a Arena[T], value func(int) T) {
	type put struct {
		off, n int
		v      T
		at     *T
	}
	grow := func(a *Arena[T], puts *[]put, n int) int { // a run of n slots
		off, run := a.Grow(n)
		v := value(len(*puts))
		for i := range run {
			run[i] = v
		}
		*puts = append(*puts, put{off, n, v, &run[0]})
		return off
	}
	check := func(what string, a *Arena[T], puts []put) {
		t.Helper()
		used := 0
		for i, p := range puts {
			run := a.From(p.off)
			if len(run) < p.n || &run[0] != p.at {
				t.Fatalf("%s: run %d at %d moved, or crosses its chunk's end", what, i, p.off)
			}
			for _, v := range run[:p.n] {
				if v != p.v {
					t.Fatalf("%s: run %d at %d holds %v, put %v", what, i, p.off, v, p.v)
				}
			}
			used += p.n
		}
		if a.Used() != used || a.Room() < used {
			t.Fatalf("%s: Used %d, Room %d, runs of %d slots", what, a.Used(), a.Room(), used)
		}
	}
	var as []put
	stride, least := 1<<a.shift, int(a.least)
	strideOf := func(off int) int { return (off - len(a.first)) >> a.shift }

	first := grow(&a, &as, 10) // the first chunk, exactly
	if first != 0 || len(a.first) != 10 || cap(a.first) != 10 {
		t.Fatalf("first run at %d in a chunk of %d/%d slots", first, len(a.first), cap(a.first))
	}
	// A second chunk of the least size, filled to the last slot.
	short := least * 100 / 256
	k1 := grow(&a, &as, short)
	k2 := grow(&a, &as, least-short)
	if k1 != 10 || k2 != k1+short || len(a.open) != least || cap(a.open) != least || len(a.more) != 1 {
		t.Fatalf("runs at %d and %d in an open chunk of %d/%d slots", k1, k2, len(a.open), cap(a.open))
	}
	// The next opens a third, a stride on; with 6 slots left in it, a
	// run of 7 goes whole to a fourth and leaves them zero.
	k3 := grow(&a, &as, least-6)
	k4 := grow(&a, &as, 7)
	if strideOf(k3) != 1 || strideOf(k4) != 2 || slices.ContainsFunc(a.more[1][least-6:least], func(v T) bool { return v != *new(T) }) {
		t.Fatalf("runs at %d and %d: strides %d and %d", k3, k4, strideOf(k3), strideOf(k4))
	}
	// A run longer than a stride has a chunk of its own, of exactly its
	// size and under both strides it covers; the next run starts the
	// stride after.
	k5 := grow(&a, &as, stride+1000)
	k6 := grow(&a, &as, 5)
	if strideOf(k5) != 3 || strideOf(k6) != 5 || len(a.more[3]) != stride+1000 || &a.more[4][0] != &a.more[3][stride] {
		t.Fatalf("runs at %d and %d: strides %d and %d, a chunk of %d slots", k5, k6, strideOf(k5), strideOf(k6), len(a.more[3]))
	}
	check("original", &a, as)

	// A copy that appends after its original did finds the tail taken: it
	// opens a chunk of its own, listed in a table of its own, and the two
	// go on through more chunks without meeting.
	b, bs := a, slices.Clone(as)
	ka, kb := grow(&a, &as, 9), grow(&b, &bs, 9)
	if ka != k6+5 || strideOf(kb) != 6 || &b.From(kb)[0] == &a.From(ka)[0] || &b.From(k6)[0] != &a.From(k6)[0] {
		t.Fatalf("the original's run at %d, the copy's at %d", ka, kb)
	}
	for i := 0; i < 40; i++ {
		grow(&a, &as, short)
		grow(&b, &bs, short-1)
	}
	check("original after the copy", &a, as)
	check("copy", &b, bs)
}
