package store

import (
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/cow"
)

// slice is the in-memory backend: one id slice per element name, kept
// in document order by ordered insertion, and nothing else per id.
//
// elems memoises the all-elements list: the first Elems after an edit
// fills it, nothing writes to it afterwards, the next edit forgets it.
// Readers of one published snapshot may fill it at the same time, with
// the same list, hence the atomic pointer.
//
// Build carves every list from one array of exactly the entries it
// indexes, each list's capacity its length: the first Add to a list
// moves it to an array of its own, as the first Add after a clone does.
// A clone copies the byName map and the memo pointer and shares every
// list; the first Add or Remove that touches a name after a clone
// replaces that name's list with a private one (own).
//
// caps is the sum of the lists' capacities, what MemoryFootprint
// charges; put keeps it in step with byName.
type slice struct {
	bind    Binding
	byName  map[string][]int
	entries int
	caps    int
	elems   atomic.Pointer[[]int]
	own     cow.Owner[string]
}

// NewSlice returns the in-memory slice backend. Binding.Before is
// required; Binding.Key is unused.
func NewSlice(b Binding) Backend {
	return &slice{bind: b, byName: map[string][]int{}, own: cow.NewOwner[string]()}
}

func (s *slice) Build(elems []int, nameOf func(int) string) error {
	count := map[string]int{}
	for _, id := range elems {
		count[nameOf(id)]++
	}
	s.byName = make(map[string][]int, len(count))
	s.own = cow.NewOwner[string]()
	free := make([]int, len(elems))
	for _, id := range elems {
		name := nameOf(id)
		ids, ok := s.byName[name]
		if !ok {
			n := count[name]
			ids, free = free[:0:n], free[n:]
		}
		s.byName[name] = append(ids, id)
	}
	s.entries, s.caps = len(elems), len(elems)
	s.elems.Store(nil)
	return nil
}

// put makes ids name's list, or drops the name when ids is empty.
func (s *slice) put(name string, ids []int) {
	s.caps += cap(ids) - cap(s.byName[name])
	if len(ids) == 0 {
		delete(s.byName, name)
		return
	}
	s.byName[name] = ids
}

func (s *slice) Add(name string, id int) error {
	ids := s.byName[name]
	if s.own.Refresh(); !s.own.Has(name) {
		// Clipped, the insert cannot fit and moves to a new array.
		ids = slices.Clip(ids)
		s.own.Add(name)
	}
	at := len(ids) // the common case, and one Before call
	if at > 0 && !s.bind.Before(ids[at-1], id) {
		at = sort.Search(at, func(i int) bool { return s.bind.Before(id, ids[i]) })
	}
	s.put(name, slices.Insert(ids, at, id))
	s.entries++
	s.elems.Store(nil)
	return nil
}

// Remove finds each doomed id in its own name's list by its label. The
// doomed ids of one name next to each other there — all of them, when a
// subtree is deleted — leave in one move.
func (s *slice) Remove(doomed map[int]bool, nameOf func(int) string) error {
	s.own.Refresh()
	for id := range doomed {
		name := nameOf(id)
		ids := s.byName[name]
		lo := sort.Search(len(ids), func(i int) bool { return !s.bind.Before(ids[i], id) })
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
			s.put(name, nil)
		case s.own.Has(name):
			s.byName[name] = slices.Delete(ids, lo, hi)
		default:
			s.put(name, slices.Concat(ids[:lo], ids[hi:]))
			s.own.Add(name)
		}
		s.elems.Store(nil)
	}
	return nil
}

func (s *slice) Name() string          { return "slice" }
func (s *slice) IDs(name string) []int { return s.byName[name] }
func (s *slice) Entries() int          { return s.entries }
func (s *slice) Stats() Stats          { return Stats{Backend: "slice", Entries: s.entries} }

func (s *slice) Elems() []int {
	if memo := s.elems.Load(); memo != nil {
		return *memo
	}
	all := listElems(s.bind, s.entries, func(dst []int) []int {
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
	c := &slice{bind: b, byName: maps.Clone(s.byName), entries: s.entries, caps: s.caps, own: s.own.Fork()}
	c.elems.Store(s.elems.Load())
	return c, nil
}

func (s *slice) Err() error     { return nil }
func (s *slice) Compact() error { return nil }
func (s *slice) Close() error   { return nil }
