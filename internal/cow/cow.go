// Package cow holds the two ownership rules that let a document and
// its clones share memory instead of copying it.
//
// A column that is written once per id and never again (element
// names, parent pointers, depths, containment keys, prefix labels)
// keeps its backing array across a clone: a snapshot only reads
// indices below its own length, and whoever appends past it must
// first claim the next slot on the array's Mark. The holder that
// claims it appends in place; any other holder of the same array —
// a divergent clone, or the clone that follows a discarded one —
// moves to a private array once.
//
// A list that is edited in place (a parent's child list, an element
// name's id list) is copied by the first holder that touches it after
// a clone. Which lists a holder has already made private is an Owner;
// clones anywhere in the family invalidate it.
//
// Neither rule ever writes to the value a clone is taken from, so a
// published snapshot can be cloned while readers traverse it. What
// fits neither rule — a per-id slice whose existing slots are rewritten
// — a clone takes a flat Copy of.
package cow

import "sync/atomic"

// Mark is the append watermark of one backing array: how many of its
// slots have been handed out. It is shared by every slice header over
// that array.
type Mark struct{ n atomic.Int64 }

// NewMark returns the mark of a fresh array whose first n slots are
// written.
func NewMark(n int) *Mark {
	m := new(Mark)
	m.n.Store(int64(n))
	return m
}

// Grow extends the write-once column s, whose backing array *m
// governs, by k zero slots that the caller fills before it publishes
// the column. When the slots after s are free and this holder is the
// first to claim them they are the shared array's own (no holder has
// written past the mark, so they still hold the zero value);
// otherwise s moves to a private array under a new mark, which *m is
// updated to.
func Grow[T any](m **Mark, s []T, k int) []T {
	n := len(s)
	if n+k <= cap(s) && (*m).n.CompareAndSwap(int64(n), int64(n+k)) {
		return s[:n+k]
	}
	*m = NewMark(n + k)
	return append(s[:n:n], make([]T, k)...)
}

// Append is Grow by one slot holding v.
func Append[T any](m **Mark, s []T, v T) []T {
	s = Grow(m, s, 1)
	s[len(s)-1] = v
	return s
}

// Copy returns a private copy of s with a little room to spare, so
// that the appends of the edit that follows a clone do not copy it a
// second time. It is for the per-id slices that are rewritten in place
// and therefore cannot be shared.
func Copy[T any](s []T) []T {
	const slack = 32
	out := make([]T, len(s), len(s)+slack)
	copy(out, s)
	return out
}

// Owner records which keyed lists a holder may edit in place. A fresh
// Owner owns every list; one returned by Fork owns none until it has
// copied them. Any later Fork in the family (the original and every
// clone descended from it) may have shared those copies again, so it
// resets every Owner of the family at its next Refresh.
type Owner[K comparable] struct {
	fam  *family
	seen uint64 // value of fam.forks that all and own are exact for
	all  bool
	own  map[K]struct{}
}

// family counts the forks taken anywhere among an original and the
// clones descended from it.
type family struct{ forks atomic.Uint64 }

// NewOwner returns the Owner of a holder that has never been cloned.
func NewOwner[K comparable]() Owner[K] {
	return Owner[K]{fam: new(family), all: true}
}

// Fork returns the Owner of a clone of o's holder. It does not write
// to o.
func (o *Owner[K]) Fork() Owner[K] {
	return Owner[K]{fam: o.fam, seen: o.fam.forks.Add(1)}
}

// Refresh must run before Has on every mutating path. It reports
// whether a clone was taken since the previous call, in which case o
// now owns nothing.
func (o *Owner[K]) Refresh() bool {
	n := o.fam.forks.Load()
	if n == o.seen {
		return false
	}
	o.seen, o.all, o.own = n, false, nil
	return true
}

// Has reports whether the list under k is private to o's holder.
func (o *Owner[K]) Has(k K) bool {
	if o.all {
		return true
	}
	_, ok := o.own[k]
	return ok
}

// Add records that o's holder has replaced the list under k with a
// private copy.
func (o *Owner[K]) Add(k K) {
	if o.all {
		return
	}
	if o.own == nil {
		o.own = make(map[K]struct{})
	}
	o.own[k] = struct{}{}
}
