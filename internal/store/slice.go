package store

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/cow"
)

// slice is the in-memory backend: per-name id slices plus the global
// element list, all kept in document order by ordered insertion. It is
// the original index layout and doubles as the differential oracle for
// the paged backend.
//
// A clone copies elems and the byName map but shares the per-name
// lists; the first Add or Remove that touches a name after a clone
// replaces that name's list with a private one (own).
type slice struct {
	bind   Binding
	byName map[string][]int
	elems  []int
	own    cow.Owner[string]
}

// NewSlice returns the in-memory slice backend. Binding.Before is
// required; Binding.Key is unused.
func NewSlice(b Binding) Backend {
	return &slice{bind: b, byName: map[string][]int{}, own: cow.NewOwner[string]()}
}

func (s *slice) Name() string { return "slice" }

func (s *slice) Build(elems []int, nameOf func(int) string) error {
	s.elems = append(s.elems[:0], elems...)
	s.byName = make(map[string][]int, len(s.byName))
	s.own = cow.NewOwner[string]()
	for _, id := range elems {
		name := nameOf(id)
		s.byName[name] = append(s.byName[name], id)
	}
	return nil
}

// insertOrdered inserts id into ids keeping document order, using the
// binding's Before. Appends are O(1) for the common tail case.
func (s *slice) insertOrdered(ids []int, id int) []int {
	n := len(ids)
	if n == 0 || s.bind.Before(ids[n-1], id) {
		return append(ids, id)
	}
	at := sort.Search(n, func(i int) bool { return s.bind.Before(id, ids[i]) })
	ids = append(ids, 0)
	copy(ids[at+1:], ids[at:])
	ids[at] = id
	return ids
}

func (s *slice) Add(name string, id int) error {
	s.elems = s.insertOrdered(s.elems, id)
	ids := s.byName[name]
	if s.own.Refresh(); !s.own.Has(name) {
		// Clipped, the insert cannot fit and moves to a new array.
		ids = slices.Clip(ids)
		s.own.Add(name)
	}
	s.byName[name] = s.insertOrdered(ids, id)
	return nil
}

func (s *slice) Remove(doomed map[int]bool, nameOf func(int) string) error {
	if len(doomed) == 0 {
		return nil
	}
	prune := func(ids []int) []int {
		kept := ids[:0]
		for _, id := range ids {
			if !doomed[id] {
				kept = append(kept, id)
			}
		}
		return kept
	}
	s.own.Refresh()
	s.elems = prune(s.elems)
	names := map[string]bool{}
	for id := range doomed {
		if name := nameOf(id); name != "" {
			names[name] = true
		}
	}
	for name := range names {
		ids := s.byName[name]
		if !s.own.Has(name) {
			ids = slices.Clone(ids)
			s.own.Add(name)
		}
		if pruned := prune(ids); len(pruned) > 0 {
			s.byName[name] = pruned
		} else {
			delete(s.byName, name)
		}
	}
	return nil
}

func (s *slice) IDs(name string) []int { return s.byName[name] }
func (s *slice) Elems() []int          { return s.elems }
func (s *slice) Entries() int          { return len(s.elems) }

func (s *slice) MemoryFootprint() int64 {
	// Each indexed element costs one slot in elems and one in its name
	// list (8 bytes each), plus append slack and map/header overhead
	// amortized into a flat per-entry estimate.
	const bytesPerEntry = 24
	return int64(len(s.elems)) * bytesPerEntry
}

func (s *slice) Stats() Stats {
	return Stats{Backend: "slice", Entries: len(s.elems)}
}

func (s *slice) Clone(b Binding) (Backend, error) {
	return &slice{
		bind:   b,
		byName: maps.Clone(s.byName),
		elems:  cow.Copy(s.elems),
		own:    s.own.Fork(),
	}, nil
}

func (s *slice) Flush() error   { return nil }
func (s *slice) Compact() error { return nil }
func (s *slice) Close() error   { return nil }
