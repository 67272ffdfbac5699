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
// A clone copies the byName map and the memo pointer and shares every
// list; the first Add or Remove that touches a name after a clone
// replaces that name's list with a private one (own).
type slice struct {
	bind    Binding
	byName  map[string][]int
	entries int
	elems   atomic.Pointer[[]int]
	own     cow.Owner[string]
}

// NewSlice returns the in-memory slice backend. Binding.Before is
// required; Binding.Key is unused.
func NewSlice(b Binding) Backend {
	return &slice{bind: b, byName: map[string][]int{}, own: cow.NewOwner[string]()}
}

func (s *slice) Build(elems []int, nameOf func(int) string) error {
	s.byName = make(map[string][]int, len(s.byName))
	s.own = cow.NewOwner[string]()
	for _, id := range elems {
		name := nameOf(id)
		s.byName[name] = append(s.byName[name], id)
	}
	s.entries = len(elems)
	s.elems.Store(nil)
	return nil
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
	s.byName[name] = slices.Insert(ids, at, id)
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
			delete(s.byName, name)
		case s.own.Has(name):
			s.byName[name] = slices.Delete(ids, lo, hi)
		default:
			s.byName[name] = slices.Concat(ids[:lo], ids[hi:])
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
	// One 8-byte slot per entry in its name's list, half as much again
	// for append slack and the map, and the memo while it is held.
	fp := int64(s.entries) * 12
	if memo := s.elems.Load(); memo != nil {
		fp += int64(cap(*memo)) * 8
	}
	return fp
}

func (s *slice) Clone(b Binding) (Backend, error) {
	c := &slice{bind: b, byName: maps.Clone(s.byName), entries: s.entries, own: s.own.Fork()}
	c.elems.Store(s.elems.Load())
	return c, nil
}

func (s *slice) Flush() error   { return nil }
func (s *slice) Compact() error { return nil }
func (s *slice) Close() error   { return nil }
