// Package cow holds the two ownership rules that let a document and
// its clones share memory instead of copying it.
//
// A column that is written once per id and never again (element
// names, parent pointers, depths, containment keys, prefix labels) is
// a Column: the array it was built in, then chunks allocated as ids
// arrive, all of them shared by a clone. A snapshot only reads indices
// below its own length, and whoever appends past it must first claim
// the next slots on the column's Mark. The holder that claims them
// writes in place; any other — a divergent clone, or the clone that
// follows a discarded one — moves its last, partly filled piece and its
// table of pieces to private memory once. No written slot is ever
// copied to make room. keys.Arena is the same rule over bytes.
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

import (
	"reflect"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/invariants"
)

// Mark is an append watermark: how many of the slots it governs have
// been handed out. It is shared by every holder of those slots.
type Mark struct{ n atomic.Int64 }

// NewMark returns a mark with the first n slots handed out.
func NewMark(n int) *Mark {
	m := new(Mark)
	m.n.Store(int64(n))
	return m
}

// Claim hands the slots from..to, still zero, to the caller if from is
// where the mark stands. A nil mark refuses.
func (m *Mark) Claim(from, to int) bool {
	return m != nil && m.n.CompareAndSwap(int64(from), int64(to))
}

// A column's tail is cut into pieces of pieceLen slots, so that At
// finds a slot with a shift, out of chunks that double from one piece
// to maxPieces: a small column pays little for its first append, a long
// one allocates seldom.
const (
	pieceShift = 5
	pieceLen   = 1 << pieceShift
	maxPieces  = 32
)

// Column is a write-once column indexed by id. Copying it shares every
// slot; the zero value is empty.
type Column[T any] struct {
	first []T            // the array the column was built in, full
	tail  []*[pieceLen]T // the slots after it, claimed or not
	n     int
	mark  *Mark // over n; nil until the first Grow
}

// NewColumn returns the column holding first, which it keeps.
func NewColumn[T any](first []T) Column[T] { return Column[T]{first: first, n: len(first)} }

// Len returns the number of slots, Cap the number allocated.
func (c *Column[T]) Len() int { return c.n }
func (c *Column[T]) Cap() int { return len(c.first) + len(c.tail)<<pieceShift }

// Bytes estimates the column's heap: the allocated slots and the table.
func (c *Column[T]) Bytes() int64 {
	return int64(c.Cap())*int64(unsafe.Sizeof(*new(T))) + 8*int64(cap(c.tail))
}

func (c *Column[T]) slot(i int) *T {
	if i < len(c.first) {
		return &c.first[i]
	}
	i -= len(c.first)
	return &c.tail[i>>pieceShift][i&(pieceLen-1)]
}

// At returns slot i; it is measurably cheaper not to go through slot.
func (c *Column[T]) At(i int) T {
	if invariants.Enabled && uint(i) >= uint(c.n) {
		invariants.Violated("cow", "slot %d of a column of %d", i, c.n)
	}
	if uint(i) < uint(len(c.first)) {
		return c.first[i]
	}
	i -= len(c.first)
	return c.tail[i>>pieceShift][i&(pieceLen-1)]
}

// Set fills slot i: one its caller's Grow made, or any of an unshared column.
func (c *Column[T]) Set(i int, v T) { *c.slot(i) = v }

// Flat returns the slots in one fresh slice.
func (c *Column[T]) Flat() []T {
	out := make([]T, c.n)
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

// Grow adds k zero slots for the caller to Set. The first holder to
// claim the slots after its own takes them where they are; any other
// keeps the full pieces, which nobody writes any more, and moves its
// partial one and the table.
func (c *Column[T]) Grow(k int) {
	n := c.n
	c.n += k
	if c.mark.Claim(n, c.n) {
		for i := n; invariants.Enabled && i < min(c.n, c.Cap()); i++ {
			if !reflect.ValueOf(c.slot(i)).Elem().IsZero() {
				invariants.Violated("cow", "claimed slot %d already holds %v", i, c.At(i))
			}
		}
	} else {
		used := n - len(c.first)
		full, rest := used>>pieceShift, used&(pieceLen-1)
		last := c.tail[full:]
		c.tail = slices.Clip(c.tail[:full])
		if rest != 0 {
			c.tail = append(c.tail, new([pieceLen]T))
			copy(c.tail[full][:rest], last[0][:])
		}
		c.mark = NewMark(c.n)
	}
	if need := (c.n - c.Cap() + pieceLen - 1) >> pieceShift; need > 0 {
		chunk := make([]T, max(need, min(max(len(c.tail), 1), maxPieces))<<pieceShift)
		for ; len(chunk) > 0; chunk = chunk[pieceLen:] {
			c.tail = append(c.tail, (*[pieceLen]T)(chunk))
		}
	}
}

// Append is Grow by one slot holding v.
func (c *Column[T]) Append(v T) {
	c.Grow(1)
	c.Set(c.n-1, v)
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
