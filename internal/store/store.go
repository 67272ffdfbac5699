// Package store defines the storage-backend API behind a document's
// element index: the mapping every query entry point uses from element
// name to node ids and from "all elements" to ids, both in document
// order.
//
// Two backends implement it, and both are one ordered id list per
// element name and nothing else per id. The slice backend keeps the
// lists as in-memory slices; it is also the differential oracle for the
// paged backend, which keeps them as the key ranges of one B-tree over
// fixed-size checksummed pages (internal/pagestore) keyed by name id
// and raw order-preserving label bytes, so documents whose index
// exceeds the cache budget spill to disk instead of growing the heap.
// Neither maintains the list of all elements: the first * name test
// after an edit fills an immutable memo (listElems) and the next edit
// forgets it.
//
// The backend is an index, not the source of truth: the journal (or
// the in-memory document) always holds the recoverable state, and a
// backend can be rebuilt from a pre-order walk at any time. That is
// why Backend methods that merely read may degrade (returning nil and
// recording the error for Flush) instead of failing queries outright.
package store

import (
	"errors"
	"sort"
)

// Binding supplies the label-dependent callbacks a backend needs from
// the owning document. Backends never reach into the labeling
// directly; rebinding a Binding is how a cloned document re-points its
// backend clone at the cloned labeling.
type Binding struct {
	// Before reports whether node a precedes node b in document order.
	// Required by the slice backend's ordered inserts.
	Before func(a, b int) bool
	// Key appends an order-preserving byte encoding of node id's label
	// to dst: bytes.Compare on two encodings must agree with document
	// order, and encodings must be unique per live node. Nil when the
	// labeling scheme cannot provide one; the paged backend then
	// refuses to open.
	Key func(dst []byte, id int) ([]byte, error)
	// Elems appends every live element id to dst in document order, from
	// a walk of the document itself: what a backend fills its
	// all-elements memo from. Optional; without it the memo is the per-name
	// lists sorted by Before, thirty times slower on 15 000 elements.
	Elems func(dst []int) []int
}

// listElems is the all-elements list of a backend bound to b that holds
// n ids: the document's own walk or, for a binding without one, the
// definition — every per-name list, which concat appends to its
// argument, sorted by Before.
func listElems(b Binding, n int, concat func(dst []int) []int) []int {
	all := make([]int, 0, n)
	if b.Elems != nil {
		return b.Elems(all)
	}
	all = concat(all)
	sort.Slice(all, func(i, j int) bool { return b.Before(all[i], all[j]) })
	return all
}

// Stats describes a backend for surfacing through Handle.Stats and
// the HTTP stats endpoint.
type Stats struct {
	// Backend is the backend name: "slice" or "paged".
	Backend string
	// Entries is the number of indexed elements.
	Entries int
	// MaxLabel is the longest Binding.Key encoding, in bytes, the
	// backend can index; zero means any. Add refuses a longer one with
	// ErrLabelTooLong.
	MaxLabel int
	// ResidentPages and AllocatedPages describe the page cache and
	// file; zero for the slice backend.
	ResidentPages  int
	AllocatedPages int
	// CacheHits, CacheMisses and Writebacks are cumulative pager
	// counters; zero for the slice backend.
	CacheHits   uint64
	CacheMisses uint64
	Writebacks  uint64
}

// CacheHitRatio returns hits/(hits+misses), or 0 with no traffic.
func (s Stats) CacheHitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// ErrLabelTooLong reports a node whose Binding.Key encoding is longer
// than Stats.MaxLabel. The index is unchanged.
var ErrLabelTooLong = errors.New("store: label too long for the index")

// Backend is a document's element index. Implementations are not
// safe for concurrent use; the owning document serializes access the
// same way it does for its labeling.
type Backend interface {
	// Name identifies the backend ("slice", "paged").
	Name() string

	// Build replaces the index contents from a document-order walk:
	// elems lists every element node id in document order and nameOf
	// returns each node's element name.
	Build(elems []int, nameOf func(int) string) error

	// Add indexes one new element node. The node's label must already
	// be assigned (Binding callbacks are consulted).
	Add(name string, id int) error

	// Remove drops every doomed node from the index. nameOf reports
	// each node's element name ("" for non-elements, which are
	// skipped). Must be called while the doomed nodes' labels are
	// still live.
	Remove(doomed map[int]bool, nameOf func(int) string) error

	// IDs returns the ids of elements named name in document order.
	// Callers must not mutate or retain the slice across index
	// mutations.
	IDs(name string) []int

	// Elems returns all element ids in document order, under the same
	// borrowing rule as IDs.
	Elems() []int

	// Entries returns the number of indexed elements.
	Entries() int

	// MemoryFootprint estimates resident bytes attributable to the
	// index, the figure the catalog charges against its budget.
	MemoryFootprint() int64

	// Stats snapshots backend statistics.
	Stats() Stats

	// Clone returns an independent copy bound to b, for cloned
	// documents. Paged clones share the page file copy-on-write.
	Clone(b Binding) (Backend, error)

	// Flush persists buffered state (a no-op for slice) and reports
	// any error a degraded read recorded earlier.
	Flush() error

	// Compact rewrites persistent storage densely (a no-op for slice).
	Compact() error

	// Close releases resources. The index is unusable afterwards.
	Close() error
}
