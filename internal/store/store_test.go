package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// testWorld fabricates the document side of a Binding: every node id
// gets a unique order key standing in for its label, so Before and Key
// agree with each other the same way a real labeling's comparator and
// ordered byte encoding do.
type testWorld struct {
	ord  map[int]uint64
	name map[int]string
}

func newWorld() *testWorld {
	return &testWorld{ord: map[int]uint64{}, name: map[int]string{}}
}

func (w *testWorld) binding() Binding {
	return Binding{
		Before: func(a, b int) bool { return w.ord[a] < w.ord[b] },
		Key: func(dst []byte, id int) ([]byte, error) {
			o, ok := w.ord[id]
			if !ok {
				return nil, fmt.Errorf("key for dead node %d", id)
			}
			return binary.BigEndian.AppendUint64(dst, o), nil
		},
	}
}

func checkEqual(t *testing.T, w *testWorld, oracle, subject Backend, names []string) {
	t.Helper()
	if o, s := oracle.Entries(), subject.Entries(); o != s {
		t.Fatalf("entries: oracle %d, subject %d", o, s)
	}
	if o, s := oracle.Elems(), subject.Elems(); !sameIDs(o, s) {
		t.Fatalf("elems diverge:\noracle %v\nsubject %v", o, s)
	}
	for _, name := range names {
		if o, s := oracle.IDs(name), subject.IDs(name); !sameIDs(o, s) {
			t.Fatalf("ids(%q) diverge:\noracle %v\nsubject %v", name, o, s)
		}
	}
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fork returns a copy of w that later changes to w leave alone: the
// document side of a clone.
func (w *testWorld) fork() *testWorld {
	return &testWorld{ord: maps.Clone(w.ord), name: maps.Clone(w.name)}
}

// walk is the world's own Binding.Elems: the ids it holds, ordered by
// their keys, computed from neither backend.
func (w *testWorld) walk(dst []int) []int {
	at := len(dst)
	for id := range w.ord {
		dst = append(dst, id)
	}
	sort.Slice(dst[at:], func(i, j int) bool { return w.ord[dst[at+i]] < w.ord[dst[at+j]] })
	return dst
}

// family is one document state held four ways: a slice backend whose
// all-elements memo is filled from the world's walk, one that has no
// walk and fills it by sorting its name lists, and a paged backend of
// each kind.
type family struct {
	w                           *testWorld
	walked, sorted, pgd, pgdWlk Backend
}

func (f *family) each() []Backend { return []Backend{f.walked, f.sorted, f.pgd, f.pgdWlk} }

// check requires the four backends to agree with each other on every
// list and with the world's own walk on Elems.
func (f *family) check(t *testing.T, names []string) {
	t.Helper()
	for _, b := range f.each() {
		checkEqual(t, f.w, f.sorted, b, names)
	}
	for _, b := range []Backend{f.walked, f.pgdWlk} {
		if want, got := f.w.walk(nil), b.Elems(); !sameIDs(want, got) {
			t.Fatalf("elems diverge from the world:\nworld %v\n%s %v", want, b.Name(), got)
		}
	}
	for _, b := range []Backend{f.walked, f.sorted} {
		s, caps := b.(*slice), 0
		for _, ids := range s.byName {
			caps += cap(ids)
		}
		if caps != s.caps {
			t.Fatalf("the slice lists' capacities sum to %d, its running sum says %d", caps, s.caps)
		}
	}
}

// clone forks the world and clones every backend onto the fork.
func (f *family) clone(t *testing.T) *family {
	t.Helper()
	c := &family{w: f.w.fork()}
	walking := c.w.binding()
	walking.Elems = c.w.walk
	var err [4]error
	c.walked, err[0] = f.walked.Clone(walking)
	c.sorted, err[1] = f.sorted.Clone(c.w.binding())
	c.pgd, err[2] = f.pgd.Clone(c.w.binding())
	c.pgdWlk, err[3] = f.pgdWlk.Clone(walking)
	if e := errors.Join(err[:]...); e != nil {
		t.Fatal(e)
	}
	return c
}

// TestSlicePagedDifferential drives a random history of adds, removes
// and clones through a slice backend with a walk, one without, and a
// paged backend of each kind, and requires identical query results
// after every step, on the clone and on the original alike: the slice
// backend is the oracle the paged backend must match, and a walk-filled
// memo must be the list its definition gives on both.
func TestSlicePagedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newWorld()
	walking := w.binding()
	walking.Elems = w.walk
	paged, err := OpenPaged(t.TempDir(), 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	pagedWalking, err := OpenPaged(t.TempDir(), 8, walking)
	if err != nil {
		t.Fatal(err)
	}
	defer pagedWalking.Close()
	fams := []*family{{w: w, walked: NewSlice(walking), sorted: NewSlice(w.binding()), pgd: paged, pgdWlk: pagedWalking}}

	names := []string{"book", "author", "title", "chapter", "section"}
	nextID := 0

	add := func(f *family, nm string) {
		f.w.ord[nextID], f.w.name[nextID] = rng.Uint64(), nm
		for _, b := range f.each() {
			if err := b.Add(nm, nextID); err != nil {
				t.Fatal(err)
			}
		}
		nextID++
	}
	// remove drops up to 20 ids, mostly neighbours as a subtree's are,
	// with every memo filled beforehand so that it has one to forget.
	remove := func(f *family) {
		f.check(t, names)
		live := f.w.walk(nil)
		doomed := map[int]bool{}
		at, k := rng.Intn(len(live)), rng.Intn(20)+1
		for i := 0; i < k; i++ {
			if rng.Intn(4) == 0 {
				at = rng.Intn(len(live))
			}
			doomed[live[(at+i)%len(live)]] = true
		}
		nameOf := func(id int) string { return f.w.name[id] }
		for _, b := range f.each() {
			if err := b.Remove(doomed, nameOf); err != nil {
				t.Fatal(err)
			}
		}
		for id := range doomed {
			delete(f.w.ord, id)
			delete(f.w.name, id)
		}
	}

	for round := 0; round < 40; round++ {
		// Every family that exists takes edits: the original and each
		// clone go their own way from the state they shared.
		f := fams[rng.Intn(len(fams))]
		// A burst of inserts at random document positions...
		for i := 0; i < 50; i++ {
			nm := names[rng.Intn(len(names))]
			add(f, nm)
			// Reads interleaved with the edits keep the memos populated,
			// so an edit must drop the lists it changed and may keep
			// another's.
			switch {
			case i%7 == 0:
				for _, name := range []string{nm, names[rng.Intn(len(names))]} {
					if o, s := f.sorted.IDs(name), f.pgd.IDs(name); !sameIDs(o, s) {
						t.Fatalf("round %d insert %d: ids(%q) diverge:\noracle %v\npaged  %v", round, i, name, o, s)
					}
				}
			case i%11 == 0:
				f.check(t, names)
			}
		}
		// ...then a random subtree-style removal.
		if len(f.w.ord) > 30 && rng.Intn(2) == 0 {
			remove(f)
		}
		for _, f := range fams {
			f.check(t, names)
		}
		switch round % 10 {
		case 3:
			if err := errors.Join(f.pgd.Err(), f.pgdWlk.Err()); err != nil {
				t.Fatal(err)
			}
		case 5:
			if len(fams) < 4 {
				// Cloned with the memos filled (the check above) one time
				// and dropped (an edit since) the next.
				if len(fams)%2 == 0 {
					add(f, names[0])
				}
				c := f.clone(t)
				fams = append(fams, c)
				for _, f := range fams {
					f.check(t, names)
				}
				// The first edit after a clone finds every list shared:
				// on the clone one time, on the original the next.
				if len(fams)%2 == 0 {
					remove(c)
				} else {
					remove(f)
				}
				for _, f := range fams {
					f.check(t, names)
				}
			}
		case 7:
			// A rebuilding Build, the document's recovery from a failed
			// edit, moves each paged index onto a generation of its own,
			// the original and its clones alike, off the one they shared.
			for _, f := range fams {
				elems, nameOf := f.w.walk(nil), func(id int) string { return f.w.name[id] }
				if err := errors.Join(f.pgd.Build(elems, nameOf), f.pgdWlk.Build(elems, nameOf)); err != nil {
					t.Fatal(err)
				}
			}
			for _, f := range fams {
				f.check(t, names)
			}
		}
	}
	if len(fams) < 3 {
		t.Fatalf("the history made %d clones, want at least two", len(fams)-1)
	}

	// Build() must reproduce the same state from a document-order walk.
	f := fams[0]
	rebuilt, err := OpenPaged(t.TempDir(), 8, f.w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if err := rebuilt.Build(f.w.walk(nil), func(id int) string { return f.w.name[id] }); err != nil {
		t.Fatal(err)
	}
	checkEqual(t, f.w, f.sorted, rebuilt, names)
}

// countedWorld is a world of n elements spread evenly over the given
// names in key order (id i has key 10*i), whose binding counts the
// Before calls and, while asked is set, records every id they were
// asked about.
type countedWorld struct {
	*testWorld
	before int
	asked  map[int]bool
}

func newCountedWorld(n int, names []string) (*countedWorld, Backend) {
	w := &countedWorld{testWorld: newWorld(), asked: map[int]bool{}}
	elems := make([]int, n)
	for id := range elems {
		elems[id] = id
		w.ord[id], w.name[id] = uint64(10*id), names[id%len(names)]
	}
	b := NewSlice(Binding{Before: func(a, b int) bool {
		w.before++
		if w.asked != nil {
			w.asked[a], w.asked[b] = true, true
		}
		return w.ord[a] < w.ord[b]
	}})
	_ = b.Build(elems, func(id int) string { return w.name[id] })
	return w, b
}

// TestSliceAddCost pins what an edit of the slice index may touch: one
// name's list. On 100 000 elements an Add into a list of k ids asks
// Before at most ceil(log2 k) + 2 times and, once the list is private,
// allocates nothing; a Remove of d ids asks nameOf d times and never
// asks Before about an id of another name.
func TestSliceAddCost(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	const n = 100_000
	w, b := newCountedWorld(n, names)
	next := n
	add := func(name string, key uint64) {
		w.ord[next], w.name[next] = key, name
		if err := b.Add(name, next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		name := names[rng.Intn(len(names))]
		k := len(b.IDs(name))
		w.before = 0
		add(name, uint64(rng.Intn(10*n))) // anywhere, the far end included
		if limit := bits.Len(uint(k-1)) + 2; w.before > limit {
			t.Fatalf("Add into a list of %d ids asked Before %d times, want at most %d", k, w.before, limit)
		}
	}
	if b.Entries() != next || len(b.Elems()) != next {
		t.Fatalf("entries %d, elems %d, want %d", b.Entries(), len(b.Elems()), next)
	}

	cl, err := b.Clone(Binding{Before: func(a, b int) bool { return w.ord[a] < w.ord[b] }})
	if err != nil {
		t.Fatal(err)
	}
	for id := next; id < next+600; id++ {
		w.ord[id], w.name[id] = 0, "" // grow the test's own maps outside the measurement
	}
	w.asked = nil
	add("a", 5) // the first edit of a list after a clone moves it to a private array
	if allocs := testing.AllocsPerRun(500, func() { add("a", 5) }); allocs > 0 {
		t.Fatalf("slice.Add into a private list allocates %.0f times, want 0", allocs)
	}
	if got := len(cl.IDs("a")); got >= len(b.IDs("a")) {
		t.Fatalf("the clone's list grew with the original's: %d ids", got)
	}

	// A subtree's worth of neighbours and a few strays, of three names.
	doomed := map[int]bool{}
	for id := 5000; id < 5030; id++ {
		if id%10 < 3 {
			doomed[id] = true
		}
	}
	doomed[70_001], doomed[90_002] = true, true
	w.before, w.asked = 0, map[int]bool{}
	asked := 0
	err = b.Remove(doomed, func(id int) string { asked++; return w.name[id] })
	if err != nil {
		t.Fatal(err)
	}
	if asked != len(doomed) {
		t.Fatalf("Remove of %d ids asked nameOf %d times", len(doomed), asked)
	}
	for id := range w.asked {
		if nm := w.name[id]; nm != "a" && nm != "b" && nm != "c" {
			t.Fatalf("Remove of a, b and c elements asked Before about %d, a %q", id, nm)
		}
	}
	if limit := len(doomed) * (bits.Len(uint(next/len(names))) + 1); w.before > limit {
		t.Fatalf("Remove of %d ids asked Before %d times, want at most %d", len(doomed), w.before, limit)
	}
	if b.Entries() != next-len(doomed) || len(b.Elems()) != next-len(doomed) {
		t.Fatalf("entries %d, elems %d, want %d", b.Entries(), len(b.Elems()), next-len(doomed))
	}
	for id := range doomed {
		if slices.Contains(b.IDs(w.name[id]), id) {
			t.Fatalf("doomed id %d is still listed", id)
		}
	}
}

// TestPagedMemoSurvivesUnrelatedEdit: an edit forgets only the
// memoized lists it can have changed — the edited names' and Elems —
// so a query for another name is answered without a tree scan.
func TestPagedMemoSurvivesUnrelatedEdit(t *testing.T) {
	w := newWorld()
	oracle := NewSlice(w.binding())
	pg, err := OpenPaged(t.TempDir(), 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	nameOf := func(id int) string { return w.name[id] }
	add := func(id int, name string) {
		t.Helper()
		w.ord[id], w.name[id] = uint64(id*10), name
		for _, b := range []Backend{oracle, pg} {
			if err := b.Add(name, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		add(i, []string{"a", "b"}[i%2])
	}
	sameArray := func(x, y []int) bool { return len(x) == len(y) && &x[0] == &y[0] }

	bs := pg.IDs("b")
	add(20, "a")
	if !sameArray(bs, pg.IDs("b")) {
		t.Fatal("Add(a) dropped the memoized ids of b")
	}
	add(21, "b")
	if got := pg.IDs("b"); sameArray(bs, got) || !sameIDs(got, oracle.IDs("b")) {
		t.Fatalf("after Add(b): ids(b) = %v, slice backend %v", got, oracle.IDs("b"))
	}

	as, bs := pg.IDs("a"), pg.IDs("b")
	doomed := map[int]bool{3: true} // a b
	for _, b := range []Backend{oracle, pg} {
		if err := b.Remove(doomed, nameOf); err != nil {
			t.Fatal(err)
		}
	}
	if !sameArray(as, pg.IDs("a")) {
		t.Fatal("Remove of a b dropped the memoized ids of a")
	}
	if got := pg.IDs("b"); sameArray(bs, got) || !sameIDs(got, oracle.IDs("b")) {
		t.Fatalf("after Remove of a b: ids(b) = %v, slice backend %v", got, oracle.IDs("b"))
	}
	if !sameIDs(pg.Elems(), oracle.Elems()) {
		t.Fatalf("elems %v, slice backend %v", pg.Elems(), oracle.Elems())
	}
}

// TestPagedAddAllocs pins an Add into warm owned pages at nothing but
// amortised splits: both keys are built in a reused scratch and copied
// into page frames, and no page is copied or encoded.
func TestPagedAddAllocs(t *testing.T) {
	w := newWorld()
	pg, err := OpenPaged(t.TempDir(), 64, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	id := 0
	add := func() {
		w.ord[id] = uint64(id)
		if err := pg.Add("n", id); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for id < 2000 {
		add()
	}
	for i := id; i < id+600; i++ {
		w.ord[i] = 0 // grow the test's own map outside the measurement
	}
	if allocs := testing.AllocsPerRun(500, add); allocs > 0 {
		t.Fatalf("paged.Add allocates %.0f times, want 0", allocs)
	} else {
		t.Logf("paged.Add: %.0f allocs", allocs)
	}
}

// TestPagedCloneIsolation clones a paged backend and mutates the
// writer; the clone's view must stay frozen (copy-on-write pages).
func TestPagedCloneIsolation(t *testing.T) {
	w := newWorld()
	b, err := OpenPaged(t.TempDir(), 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 400; i++ {
		w.ord[i] = uint64(i)
		w.name[i] = "n"
		if err := b.Add("n", i); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := b.Clone(w.binding())
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int(nil), snap.Elems()...)
	doomed := map[int]bool{}
	for i := 0; i < 400; i += 2 {
		doomed[i] = true
	}
	if err := b.Remove(doomed, func(id int) string { return "n" }); err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 500; i++ {
		w.ord[i] = uint64(i)
		w.name[i] = "n"
		if err := b.Add("n", i); err != nil {
			t.Fatal(err)
		}
	}
	if got := snap.Elems(); !sameIDs(got, before) {
		t.Fatalf("snapshot view changed under writer mutations")
	}
	if snap.Entries() != 400 {
		t.Fatalf("snapshot entries %d, want 400", snap.Entries())
	}
	if b.Entries() != 300 {
		t.Fatalf("writer entries %d, want 300", b.Entries())
	}
}

// TestPagedRemoveUnknownName: removing elements whose name was never
// indexed must be a no-op that interns nothing — a name first seen in a
// delete would otherwise grow the symbol table forever.
func TestPagedRemoveUnknownName(t *testing.T) {
	w := newWorld()
	b, err := OpenPaged(t.TempDir(), 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 10; i++ {
		w.ord[i] = uint64(i)
		w.name[i] = "known"
		if err := b.Add("known", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 20; i++ {
		w.ord[i] = uint64(i)
	}
	p := b.(*paged)
	namesBefore := p.doc.Symbols().Len()
	doomed := map[int]bool{}
	for i := 10; i < 20; i++ {
		doomed[i] = true
	}
	err = b.Remove(doomed, func(id int) string { return fmt.Sprintf("never-indexed-%d", id) })
	if err != nil {
		t.Fatal(err)
	}
	if n := p.doc.Symbols().Len(); n != namesBefore {
		t.Fatalf("remove of unknown names grew the name table: %d symbols, want %d", n, namesBefore)
	}
	if b.Entries() != 10 {
		t.Fatalf("entries %d, want 10", b.Entries())
	}
}

// TestPagedRequiresOrderedKeys: a Binding without Key must be refused.
func TestPagedRequiresOrderedKeys(t *testing.T) {
	_, err := OpenPaged(t.TempDir(), 8, Binding{Before: func(a, b int) bool { return a < b }})
	if err != ErrNoOrderedKeys {
		t.Fatalf("err = %v, want ErrNoOrderedKeys", err)
	}
}

// TestSliceCloneSharesNothing guards the slice clone's independence.
func TestSliceCloneSharesNothing(t *testing.T) {
	w := newWorld()
	s := NewSlice(w.binding())
	for i := 0; i < 10; i++ {
		w.ord[i] = uint64(i)
		w.name[i] = "x"
		if err := s.Add("x", i); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := s.Clone(w.binding())
	if err != nil {
		t.Fatal(err)
	}
	w.ord[10] = 100
	w.name[10] = "x"
	if err := s.Add("x", 10); err != nil {
		t.Fatal(err)
	}
	if len(cl.IDs("x")) != 10 || len(s.IDs("x")) != 11 {
		t.Fatalf("clone %d / original %d, want 10 / 11", len(cl.IDs("x")), len(s.IDs("x")))
	}
	if !reflect.DeepEqual(cl.Elems(), []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("clone elems %v", cl.Elems())
	}
}

// TestSliceBuiltToSize: Build carves the lists from one array of
// exactly the entries, so their capacities sum to the entry count and
// the footprint is 8 B an entry; the first Add to a list moves it, and
// the footprint rises by what the moved list holds.
func TestSliceBuiltToSize(t *testing.T) {
	names := []string{"a", "b", "c"}
	const n = 1000
	w := newWorld()
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
		w.ord[i], w.name[i] = uint64(2*i), names[i*i%len(names)]
	}
	b := NewSlice(w.binding())
	if err := b.Build(elems, func(id int) string { return w.name[id] }); err != nil {
		t.Fatal(err)
	}
	caps := 0
	for _, name := range names {
		caps += cap(b.IDs(name))
	}
	if caps != n {
		t.Fatalf("Build of %d entries: the lists' capacities sum to %d", n, caps)
	}
	if fp := b.MemoryFootprint(); fp != 8*n {
		t.Fatalf("footprint after Build %d B, want 8 x %d", fp, n)
	}
	before, ids := b.MemoryFootprint(), b.IDs("a")
	w.ord[n], w.name[n] = 1, "a"
	if err := b.Add("a", n); err != nil {
		t.Fatal(err)
	}
	moved := b.IDs("a")
	if &moved[0] == &ids[0] {
		t.Fatal("the first Add after Build did not move the list")
	}
	if got, want := b.MemoryFootprint()-before, 8*int64(cap(moved)-cap(ids)); got != want {
		t.Fatalf("the Add moved a %d-slot list to %d slots and the footprint rose %d B, want %d", cap(ids), cap(moved), got, want)
	}
}

// TestPagedFootprintChargesCapacity: a memoized id list is charged at
// its capacity, the slack append left in it included, as the slice
// backend charges its lists.
func TestPagedFootprintChargesCapacity(t *testing.T) {
	const n = 1000
	w := newWorld()
	elems := make([]int, n)
	for i := range elems {
		elems[i] = i
		w.ord[i], w.name[i] = uint64(i), "a"
	}
	p, err := OpenPaged(t.TempDir(), 64, w.binding()) // every page stays resident
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Build(elems, func(id int) string { return w.name[id] }); err != nil {
		t.Fatal(err)
	}
	before := p.MemoryFootprint()
	ids := p.IDs("a")
	if len(ids) != n || cap(ids) == n {
		t.Fatalf("the scanned list holds %d ids in %d slots: no slack to charge", len(ids), cap(ids))
	}
	if got, want := p.MemoryFootprint()-before, 8*int64(cap(ids)); got != want {
		t.Fatalf("a list of %d ids in %d slots raised the footprint %d B, want %d", len(ids), cap(ids), got, want)
	}
}

// TestStatsShape: both backends report coherent Stats.
func TestStatsShape(t *testing.T) {
	w := newWorld()
	s := NewSlice(w.binding())
	p, err := OpenPaged(t.TempDir(), 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 1000; i++ {
		w.ord[i] = uint64(i)
		w.name[i] = "e"
		if err := s.Add("e", i); err != nil {
			t.Fatal(err)
		}
		if err := p.Add("e", i); err != nil {
			t.Fatal(err)
		}
	}
	ss, ps := s.Stats(), p.Stats()
	if ss.Backend != "slice" || ss.Entries != 1000 {
		t.Fatalf("slice stats %+v", ss)
	}
	if ps.Backend != "paged" || ps.Entries != 1000 || ps.AllocatedPages == 0 {
		t.Fatalf("paged stats %+v", ps)
	}
	if ps.ResidentPages > 8+1 { // clamped cache budget bounds residency
		t.Fatalf("resident pages %d exceed budget", ps.ResidentPages)
	}
	if s.MemoryFootprint() <= 0 || p.MemoryFootprint() <= 0 {
		t.Fatal("zero memory footprint")
	}
}

// TestPagedOverlongLabel: a label neither tree can key is refused with
// ErrLabelTooLong before either is touched, by Add and by a rebuilding
// Build alike, and the failed Build leaves the index it was to replace
// in place — not an empty one.
func TestPagedOverlongLabel(t *testing.T) {
	w := newWorld()
	long := map[int]int{} // id -> label length
	b := w.binding()
	short := b.Key
	b.Key = func(dst []byte, id int) ([]byte, error) {
		if n, ok := long[id]; ok {
			return append(dst, make([]byte, n)...), nil
		}
		return short(dst, id)
	}
	p, err := OpenPaged(t.TempDir(), 8, b)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	oracle := NewSlice(b)
	var elems []int
	for id := 0; id < 200; id++ {
		w.ord[id], w.name[id] = uint64(1000+id), []string{"a", "b"}[id%2]
		elems = append(elems, id)
	}
	nameOf := func(id int) string { return w.name[id] }
	for _, be := range []Backend{p, oracle} {
		if err := be.Build(elems, nameOf); err != nil {
			t.Fatal(err)
		}
	}
	limit := p.Stats().MaxLabel
	w.name[200], long[200] = "a", limit
	if err := p.Add("a", 200); err != nil {
		t.Fatalf("a label of exactly MaxLabel = %d bytes: %v", limit, err)
	}
	if err := oracle.Add("a", 200); err != nil {
		t.Fatal(err)
	}
	w.name[201], long[201] = "a", limit+1
	if err := p.Add("a", 201); !errors.Is(err, ErrLabelTooLong) {
		t.Fatalf("Add of a %d-byte label: %v, want ErrLabelTooLong", limit+1, err)
	}
	checkEqual(t, w, oracle, p, []string{"a", "b"})
	// 200 and 201 have no ord, so they come first in document order, as
	// their zero-byte labels do in key order.
	if err := p.Build(append([]int{200, 201}, elems...), nameOf); !errors.Is(err, ErrLabelTooLong) {
		t.Fatalf("Build over a %d-byte label: %v, want ErrLabelTooLong", limit+1, err)
	}
	checkEqual(t, w, oracle, p, []string{"a", "b"})
	if err := p.Add("b", 201); !errors.Is(err, ErrLabelTooLong) || p.Err() != nil {
		t.Fatalf("the index after a failed Build: Add %v", err)
	}
}
