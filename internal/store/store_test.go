package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
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
		t.Fatalf("entries: oracle %d, paged %d", o, s)
	}
	if o, s := oracle.Elems(), subject.Elems(); !sameIDs(o, s) {
		t.Fatalf("elems diverge:\noracle %v\npaged  %v", o, s)
	}
	for _, name := range names {
		if o, s := oracle.IDs(name), subject.IDs(name); !sameIDs(o, s) {
			t.Fatalf("ids(%q) diverge:\noracle %v\npaged  %v", name, o, s)
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

// TestSlicePagedDifferential drives random adds and removes through
// both backends and requires identical query results throughout: the
// slice backend is the oracle the paged backend must match.
func TestSlicePagedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newWorld()
	oracle := NewSlice(w.binding())
	paged, err := OpenPaged(t.TempDir(), 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	names := []string{"book", "author", "title", "chapter", "section"}
	nameOf := func(id int) string { return w.name[id] }
	live := []int{}
	nextID := 0

	for round := 0; round < 40; round++ {
		// A burst of inserts at random document positions...
		for i := 0; i < 50; i++ {
			id := nextID
			nextID++
			w.ord[id] = rng.Uint64()
			nm := names[rng.Intn(len(names))]
			w.name[id] = nm
			live = append(live, id)
			if err := oracle.Add(nm, id); err != nil {
				t.Fatal(err)
			}
			if err := paged.Add(nm, id); err != nil {
				t.Fatal(err)
			}
			// Reads interleaved with the edits keep the paged memos
			// populated, so an edit must drop the edited name's list
			// and may keep another's.
			if i%7 == 0 {
				for _, name := range []string{nm, names[rng.Intn(len(names))]} {
					if o, s := oracle.IDs(name), paged.IDs(name); !sameIDs(o, s) {
						t.Fatalf("round %d insert %d: ids(%q) diverge:\noracle %v\npaged  %v", round, i, name, o, s)
					}
				}
			}
		}
		// ...then a random subtree-style removal.
		if len(live) > 30 && rng.Intn(2) == 0 {
			doomed := map[int]bool{}
			k := rng.Intn(20) + 1
			for i := 0; i < k; i++ {
				at := rng.Intn(len(live))
				doomed[live[at]] = true
			}
			if err := oracle.Remove(doomed, nameOf); err != nil {
				t.Fatal(err)
			}
			if err := paged.Remove(doomed, nameOf); err != nil {
				t.Fatal(err)
			}
			kept := live[:0]
			for _, id := range live {
				if !doomed[id] {
					kept = append(kept, id)
				} else {
					delete(w.ord, id)
					delete(w.name, id)
				}
			}
			live = kept
		}
		checkEqual(t, w, oracle, paged, names)
		switch round % 10 {
		case 3:
			if err := paged.Flush(); err != nil {
				t.Fatal(err)
			}
		case 7:
			if err := paged.Compact(); err != nil {
				t.Fatal(err)
			}
			checkEqual(t, w, oracle, paged, names)
		}
	}

	// Build() must reproduce the same state from a document-order walk.
	elems := append([]int(nil), oracle.Elems()...)
	rebuilt, err := OpenPaged(t.TempDir(), 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if err := rebuilt.Build(elems, nameOf); err != nil {
		t.Fatal(err)
	}
	checkEqual(t, w, oracle, rebuilt, names)
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
// indexed must be a no-op that does not allocate name-table ids — a
// name first seen in a delete would otherwise grow nameIDs (and every
// future clone's copy) forever.
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
	namesBefore := len(p.nameIDs)
	doomed := map[int]bool{}
	for i := 10; i < 20; i++ {
		doomed[i] = true
	}
	err = b.Remove(doomed, func(id int) string { return fmt.Sprintf("never-indexed-%d", id) })
	if err != nil {
		t.Fatal(err)
	}
	if len(p.nameIDs) != namesBefore || len(p.nameList) != namesBefore {
		t.Fatalf("remove of unknown names grew the name table: %d ids, %d listed, want %d",
			len(p.nameIDs), len(p.nameList), namesBefore)
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

// TestPagedClonesBothCompact: two clones of one paged backend that
// both Compact must not collide — neither on the retired pager (a
// second runtime.SetFinalizer on it is a fatal throw) nor on the next
// generation's file name (the second Create would truncate the file
// the first just committed). Each keeps scanning every entry, and
// each compaction produced its own generation file.
func TestPagedClonesBothCompact(t *testing.T) {
	w := newWorld()
	dir := t.TempDir()
	oracle := NewSlice(w.binding())
	p, err := OpenPaged(dir, 8, w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	names := []string{"a", "b", "c"}
	for i := 0; i < 3000; i++ {
		w.ord[i] = uint64(i)
		w.name[i] = names[i%len(names)]
		for _, b := range []Backend{oracle, p} {
			if err := b.Add(w.name[i], i); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := p.Clone(w.binding())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, b := range []Backend{p, c} {
		if err := b.Compact(); err != nil {
			t.Fatal(err)
		}
		checkEqual(t, w, oracle, p, names)
		checkEqual(t, w, oracle, c, names)
	}
	files, err := filepath.Glob(filepath.Join(dir, "labels-*.pages"))
	if err != nil || len(files) != 2 {
		t.Fatalf("generation files after both compactions: %v, %v; want two", files, err)
	}
	// Each side still takes edits on its own generation.
	w.ord[3000], w.name[3000] = 3000, "a"
	for _, b := range []Backend{oracle, p, c} {
		if err := b.Add("a", 3000); err != nil {
			t.Fatal(err)
		}
	}
	checkEqual(t, w, oracle, p, names)
	checkEqual(t, w, oracle, c, names)
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
	if err := p.Build(append(elems, 200, 201), nameOf); !errors.Is(err, ErrLabelTooLong) {
		t.Fatalf("Build over a %d-byte label: %v, want ErrLabelTooLong", limit+1, err)
	}
	checkEqual(t, w, oracle, p, []string{"a", "b"})
	if err := p.Add("b", 201); !errors.Is(err, ErrLabelTooLong) || p.Flush() != nil {
		t.Fatalf("the index after a failed Build: Add %v", err)
	}
}
