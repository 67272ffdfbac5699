package store

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/cow"
)

// slice is the in-memory backend: one id slice per element name, kept
// in document order by ordered insertion, and nothing else per id. The
// lists sit in byName at their names' symbols; a symbol at or past its
// end, or a nil slot, has no elements.
//
// elems memoises the all-elements list: the first Elems after an edit
// fills it, nothing writes to it afterwards, the next edit forgets it.
// Readers of one published snapshot may fill it at the same time, with
// the same list, hence the atomic pointer.
//
// Build carves every list from elems itself, grouped by name in place,
// each list's capacity its length: the first Add to a list
// moves it to an array of its own, as the first Add after a clone does.
// A clone copies byName, one slice header a symbol, and the memo
// pointer, and shares every list; the first Add or Remove that touches
// a name after a clone replaces that name's list with a private one
// (own).
//
// caps is the sum of the lists' capacities, what MemoryFootprint
// charges; put keeps it in step with byName.
type slice struct {
	doc     Doc
	byName  [][]int
	entries int
	caps    int
	elems   atomic.Pointer[[]int]
	own     cow.Owner[uint32]
}

// NewSlice returns the in-memory slice backend. It needs the binding's
// Before, and Key only through a Doc.
func NewSlice(b Binding) Backend {
	return &slice{doc: b.doc(nil), own: cow.NewOwner[uint32]()}
}

// list returns the list of the name whose symbol is sym.
func (s *slice) list(sym uint32) []int {
	if int(sym) < len(s.byName) {
		return s.byName[sym]
	}
	return nil
}

func (s *slice) Build(elems []int, nameOf func(int) string) error {
	if cap(elems) > len(elems) {
		// Kept, elems would hold its spare capacity where no list sees it.
		elems = append(make([]int, 0, len(elems)), elems...)
	}
	end, err := groupByName(elems, nameOf, s.doc.Symbols())
	if err != nil {
		return err
	}
	s.byName = make([][]int, len(end))
	s.own = cow.NewOwner[uint32]()
	lo := 0
	for sym, hi := range end {
		if hi > lo {
			s.byName[sym] = elems[lo:hi:hi]
		}
		lo = hi
	}
	s.entries, s.caps = len(elems), len(elems)
	s.elems.Store(nil)
	return nil
}

// put makes ids the list of the name whose symbol is sym.
func (s *slice) put(sym uint32, ids []int) {
	if n := int(sym) + 1; n > len(s.byName) {
		s.byName = append(s.byName, make([][]int, n-len(s.byName))...)
	}
	s.caps += cap(ids) - cap(s.byName[sym])
	s.byName[sym] = ids
}

func (s *slice) Add(name string, id int) error {
	sym, err := s.doc.Symbols().Intern(name)
	if err != nil {
		return err
	}
	ids := s.list(sym)
	if s.own.Refresh(); !s.own.Has(sym) {
		// Clipped, the insert cannot fit and moves to a new array.
		ids = slices.Clip(ids)
		s.own.Add(sym)
	}
	at := len(ids) // the common case, and one Before call
	if at > 0 && !s.doc.Before(ids[at-1], id) {
		at = sort.Search(at, func(i int) bool { return s.doc.Before(id, ids[i]) })
	}
	s.put(sym, slices.Insert(ids, at, id))
	s.entries++
	s.elems.Store(nil)
	return nil
}

// Remove finds each doomed id in its own name's list by its label. The
// doomed ids of one name next to each other there — all of them, when a
// subtree is deleted — leave in one move.
func (s *slice) Remove(doomed map[int]bool, nameOf func(int) string) error {
	s.own.Refresh()
	syms := s.doc.Symbols()
	for id := range doomed {
		sym, ok := syms.Lookup(nameOf(id))
		if !ok {
			continue // not an element
		}
		ids := s.list(sym)
		lo := sort.Search(len(ids), func(i int) bool { return !s.doc.Before(ids[i], id) })
		if lo == len(ids) || ids[lo] != id {
			continue // not indexed, or gone with an earlier run
		}
		hi := lo + 1
		for lo > 0 && doomed[ids[lo-1]] {
			lo--
		}
		for hi < len(ids) && doomed[ids[hi]] {
			hi++
		}
		s.entries -= hi - lo
		switch {
		case hi-lo == len(ids):
			s.put(sym, nil)
		case s.own.Has(sym):
			s.byName[sym] = slices.Delete(ids, lo, hi)
		default:
			s.put(sym, slices.Concat(ids[:lo], ids[hi:]))
			s.own.Add(sym)
		}
		s.elems.Store(nil)
	}
	return nil
}

func (s *slice) Name() string { return "slice" }
func (s *slice) Entries() int { return s.entries }
func (s *slice) Stats() Stats { return Stats{Backend: "slice", Entries: s.entries} }

func (s *slice) IDs(name string) []int {
	sym, ok := s.doc.Symbols().Lookup(name)
	if !ok {
		return nil
	}
	return s.list(sym)
}

func (s *slice) Elems() []int {
	if memo := s.elems.Load(); memo != nil {
		return *memo
	}
	all := listElems(s.doc, s.entries, func(dst []int) []int {
		for _, ids := range s.byName {
			dst = append(dst, ids...)
		}
		return dst
	})
	s.elems.Store(&all)
	return all
}

func (s *slice) MemoryFootprint() int64 {
	// One 8-byte slot per unit of the lists' capacity, and the memo
	// while it is held.
	fp := int64(s.caps) * 8
	if memo := s.elems.Load(); memo != nil {
		fp += int64(cap(*memo)) * 8
	}
	return fp
}

func (s *slice) Clone(b Binding) (Backend, error) {
	c := &slice{doc: b.doc(s.doc.Symbols()), byName: slices.Clone(s.byName), entries: s.entries, caps: s.caps, own: s.own.Fork()}
	c.elems.Store(s.elems.Load())
	return c, nil
}

func (s *slice) Err() error   { return nil }
func (s *slice) Close() error { return nil }
