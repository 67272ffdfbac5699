// Package cow holds the three ownership rules that let a document and
// its clones share memory instead of copying it. No rule writes to the
// value a clone is taken from, so a published snapshot can be cloned
// while readers traverse it.
//
// Slots written once per id (element names, parent pointers, depths,
// containment Refs, prefix labels) are a Column: the array it was built
// in, then chunks allocated as ids arrive, shared by every clone. A
// snapshot only reads below its own length, and whoever appends past it
// first claims the next slots on the column's Mark and writes in place;
// any other holder moves its last, partly filled piece and its table of
// pieces to private memory once, so that ids stay dense.
//
// Runs of any length written once and named by offset (keys.Arena's
// label bytes, a cloned scheme.Tree's child lists) are an Arena, under
// the same claim; a holder that loses it opens a chunk of its own at
// the next stride and copies nothing. The winner may Extend its last
// run in place, and scheme.Tree rewrites the runs it appended since its
// Epoch last moved, which no other holder can have read.
//
// A list edited in place (an element name's id list) is copied by the
// first holder that touches it after a clone: an Owner records which
// it has made private, and a clone anywhere in the family, counted by
// an Epoch, resets it. What fits no rule — primelbl's ordering and SC
// columns, rewritten in place — a clone takes a flat Copy of.
package cow

import (
	"math"
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

// Arena is a write-once store of runs of T, each named by the offset of
// its first slot and lying whole in one chunk. Copying it shares every
// chunk. first, read directly, is the first chunk, cut at this holder's
// last run while it is the open one; more[i] is the arena from offset
// len(first)+i<<shift to the end of the later chunk that lies in. open,
// from offset base to this holder's last run, is the chunk being filled.
type Arena[T any] struct {
	first, open []T
	more        [][]T
	base        int
	mark        *Mark // over len(open)
	used, room  int   // slots this holder's runs take, and its chunks hold
	shift       uint8 // a stride is 1<<shift slots
	least       int32 // slots a later chunk holds at least
}

// NewArena returns an empty arena. A later chunk holds an eighth of what
// the holder has used, from least slots to a stride, or one longer run.
func NewArena[T any](shift uint8, least int32) Arena[T] { return Arena[T]{shift: shift, least: least} }

// Start makes chunk, the first k slots of it the caller's, the only
// chunk: a bulk fill, or a compaction. Other holders keep the old ones.
func (a *Arena[T]) Start(chunk []T, k int) {
	a.first, a.more, a.open, a.base = chunk[:k], nil, chunk[:k], 0
	a.mark, a.used, a.room = NewMark(k), k, len(chunk)
}

// From returns the arena from offset off to the end of its chunk, or of
// this holder's runs in the first.
func (a *Arena[T]) From(off int) []T {
	if off < len(a.first) {
		return a.first[off:]
	}
	off -= len(a.first)
	return a.more[off>>a.shift][off&(1<<a.shift-1):]
}

// End returns the offset after this holder's last run, Used the slots
// its runs have taken, Room those its chunks hold.
func (a *Arena[T]) End() int  { return a.base + len(a.open) }
func (a *Arena[T]) Used() int { return a.used }
func (a *Arena[T]) Room() int { return a.room }

// Bytes estimates the arena's heap: its chunks and its table of strides.
func (a *Arena[T]) Bytes() int64 {
	return int64(a.room)*int64(unsafe.Sizeof(*new(T))) + 24*int64(cap(a.more))
}

// Extend claims the k slots after this holder's last run if the open
// chunk has them and no other holder claimed them first.
func (a *Arena[T]) Extend(k int) bool {
	n := len(a.open)
	if n+k > cap(a.open) || !a.mark.Claim(n, n+k) {
		return false
	}
	a.open = a.open[:n+k]
	for i := n; invariants.Enabled && i < n+k; i++ {
		if !reflect.ValueOf(&a.open[i]).Elem().IsZero() {
			invariants.Violated("cow", "claimed slot %d of an arena already holds %v", a.base+i, a.open[i])
		}
	}
	if len(a.more) == 0 {
		a.first = a.open
	}
	a.used += k
	return true
}

// Grow claims a run of k zero slots and returns its offset and the run
// for the caller to fill: after this holder's last run if Extend can,
// else in a new chunk, which on an empty arena is the first and exactly
// k. The first holder to leave the open chunk lists the new one in the
// shared table; any other clips the table first. No run is copied.
func (a *Arena[T]) Grow(k int) (int, []T) {
	switch {
	case a.Extend(k):
	case a.room == 0:
		a.Start(make([]T, k), k)
	default:
		if !a.mark.Claim(len(a.open), math.MaxInt) {
			a.more = slices.Clip(a.more)
		}
		a.base = len(a.first) + len(a.more)<<a.shift
		chunk := make([]T, max(k, min(max(a.used/8, int(a.least)), 1<<a.shift)))
		for off := 0; off < len(chunk); off += 1 << a.shift {
			a.more = append(a.more, chunk[off:])
		}
		a.open, a.mark = chunk[:k], NewMark(k)
		a.used, a.room = a.used+k, a.room+len(chunk)
	}
	n := len(a.open)
	return a.base + n - k, a.open[n-k : n : n]
}

// Copy returns a private copy of s with a little room to spare, so
// that the appends of the edit that follows a clone do not copy it a
// second time. It is for primelbl's per-id columns, which are
// rewritten in place and therefore cannot be shared.
func Copy[T any](s []T) []T {
	const slack = 32
	out := make([]T, len(s), len(s)+slack)
	copy(out, s)
	return out
}

// Epoch is a holder's count of the forks taken in its family (the
// original and every clone descended from it). What a holder writes
// after a Refresh is its alone until the next fork, which the next
// Refresh reports.
type Epoch struct {
	fam  *family
	seen uint64 // value of fam.forks at the last Refresh
}

type family struct{ forks atomic.Uint64 }

// NewEpoch returns the Epoch of a holder that has never been cloned.
func NewEpoch() Epoch { return Epoch{fam: new(family)} }

// Fork returns the Epoch of a clone of e's holder. It does not write
// to e.
func (e *Epoch) Fork() Epoch { return Epoch{fam: e.fam, seen: e.fam.forks.Add(1)} }

// Alone reports whether no clone has been taken in the family. It does
// not write to e.
func (e *Epoch) Alone() bool { return e.fam.forks.Load() == 0 }

// Seen returns the fork count at the last Refresh, or at the Fork that
// made e: what e's holder wrote since is shared with no holder that has
// seen the same count.
func (e *Epoch) Seen() uint64 { return e.seen }

// Refresh reports whether a clone was taken anywhere in the family
// since the previous call.
func (e *Epoch) Refresh() bool {
	n := e.fam.forks.Load()
	if n == e.seen {
		return false
	}
	e.seen = n
	return true
}

// Owner records which keyed lists a holder may edit in place. A fresh
// Owner owns every list; one returned by Fork owns none until it has
// copied them. Any later Fork in the family may have shared those
// copies again, so it resets every Owner of the family at its next
// Refresh. The keys, the names edited between two forks, are few.
type Owner[K comparable] struct {
	epoch Epoch
	all   bool
	own   []K
}

// NewOwner returns the Owner of a holder that has never been cloned.
func NewOwner[K comparable]() Owner[K] { return Owner[K]{epoch: NewEpoch(), all: true} }

// Fork returns the Owner of a clone of o's holder. It does not write
// to o.
func (o *Owner[K]) Fork() Owner[K] { return Owner[K]{epoch: o.epoch.Fork()} }

// Refresh must run before Has on every mutating path. It reports
// whether a clone was taken since the previous call, in which case o
// now owns nothing.
func (o *Owner[K]) Refresh() bool {
	if !o.epoch.Refresh() {
		return false
	}
	o.all, o.own = false, o.own[:0]
	return true
}

// Has reports whether the list under k is private to o's holder.
func (o *Owner[K]) Has(k K) bool { return o.all || slices.Contains(o.own, k) }

// Add records that o's holder has replaced the list under k with a
// private copy.
func (o *Owner[K]) Add(k K) {
	if !o.all {
		o.own = append(o.own, k)
	}
}
