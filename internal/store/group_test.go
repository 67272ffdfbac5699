package store

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/symtab"
)

// TestGroupByNameMatchesFilter holds the in-place grouping to a naive
// one on random inputs: each symbol's ids, in order, must be what a
// filter of the input by that name keeps, and the ends must follow the
// symbols' codes. A refused name leaves the input as it was.
func TestGroupByNameMatchesFilter(t *testing.T) {
	gen := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		n, names := gen.Intn(500), 1+gen.Intn(12)
		syms := symtab.New()
		// A table that holds names already codes them out of order.
		for i := 0; i < gen.Intn(names); i++ {
			if _, err := syms.Intern(fmt.Sprintf("n%d", gen.Intn(names))); err != nil {
				t.Fatal(err)
			}
		}
		name := map[int]string{}
		elems := gen.Perm(2 * n)[:n]
		for _, id := range elems {
			name[id] = fmt.Sprintf("n%d", gen.Intn(names))
		}
		in := slices.Clone(elems)
		end, err := groupByName(elems, func(id int) string { return name[id] }, syms)
		if err != nil {
			t.Fatal(err)
		}
		if len(end) != syms.Len() {
			t.Fatalf("round %d: %d ends for %d symbols", round, len(end), syms.Len())
		}
		lo := 0
		for sym, hi := range end {
			var want []int
			for _, id := range in {
				if name[id] == syms.Name(uint32(sym)) {
					want = append(want, id)
				}
			}
			if got := elems[lo:hi]; !slices.Equal(got, want) {
				t.Fatalf("round %d: %s grouped as %v, want %v", round, syms.Name(uint32(sym)), got, want)
			}
			lo = hi
		}
		if lo != n {
			t.Fatalf("round %d: the groups end at %d of %d", round, lo, n)
		}
		if n > 0 {
			elems = slices.Clone(in)
			name[elems[n-1]] = "bad name"
			if _, err := groupByName(elems, func(id int) string { return name[id] }, syms); err == nil || !slices.Equal(elems, in) {
				t.Fatalf("round %d: a refused name gave %v and left %v, want the input %v", round, err, elems, in)
			}
		}
	}
}

// TestSliceBuildBytes pins what the slice backend's Build allocates over
// an exactly sized element list: the 4 B symbol per element that its
// grouping walks, and O(symbols) besides. The lists are carved from the
// list itself; a copy of it would cost 8 B an element more.
func TestSliceBuildBytes(t *testing.T) {
	const n, names = 100_000, 40
	w := newWorld()
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
		w.ord[i], w.name[i] = uint64(i), fmt.Sprintf("e%d", i*7%names)
	}
	nameOf := func(id int) string { return w.name[id] }
	b := NewSlice(w.binding())
	if err := b.Build(slices.Clone(elems), nameOf); err != nil { // interns the names
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.ReadMemStats(&before)
		if err := b.Build(elems, nameOf); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	}()
	got, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*n+64*names+1024)
	t.Logf("Build of %d elements over %d names: %d B (%.2f B an element)", n, names, got, float64(got)/n)
	if got > bound {
		t.Errorf("Build of %d elements allocated %d B, want at most 4 B x %d + 64 B x %d names + 1 KB = %d", n, got, n, names, bound)
	}
	if ids := b.IDs("e0"); len(ids) == 0 || &ids[:1][0] != &elems[0] {
		t.Errorf("the first list is not carved from the list Build was given")
	}
}
