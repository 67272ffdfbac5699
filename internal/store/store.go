// Package store defines the storage-backend API behind a document's
// element index: the mapping every query entry point uses from element
// name to node ids and from "all elements" to ids, both in document
// order.
//
// Two backends implement it, and both are one ordered id list per
// element name and nothing else per id, found by the name's symbol: its
// code in the document's symbol table (internal/symtab). The slice
// backend keeps the lists as in-memory slices in an array indexed by
// symbol; it is also the differential oracle for the paged backend,
// which keeps them as the key ranges of one B-tree over fixed-size
// checksummed pages (internal/pagestore) keyed by symbol and raw
// order-preserving label bytes, so documents whose index exceeds the
// cache budget spill to disk instead of growing the heap.
// Neither maintains the list of all elements: the first * name test
// after an edit fills an immutable memo (listElems) and the next edit
// forgets it.
//
// The backend is an index, not the source of truth: the journal (or
// the in-memory document) always holds the recoverable state, and a
// backend can be rebuilt from a pre-order walk at any time. That is
// why Backend methods that merely read may degrade (returning nil and
// recording the error for Err) instead of failing queries outright.
package store

import (
	"errors"
	"sort"

	"repro/internal/symtab"
)

// Binding is what a backend needs from the document it indexes.
// Backends never reach into the labeling directly; rebinding is how a
// cloned document re-points its backend clone at the cloned labeling.
// A document binds itself as Doc, which costs nothing per clone; a
// caller that holds only a labeling gives the three funcs instead, and
// the backend then names elements in a symbol table of its own, which
// its clones share.
type Binding struct {
	// Doc, when not nil, is the document; the funcs are then unused.
	Doc Doc
	// Before reports whether node a precedes node b in document order.
	Before func(a, b int) bool
	// Key is Doc.AppendKey; nil when the labeling scheme cannot provide
	// one, and the paged backend then refuses to open.
	Key func(dst []byte, id int) ([]byte, error)
	// Elems is Doc.AppendElems. Optional; without it the all-elements
	// memo is the per-name lists sorted by Before, thirty times slower
	// on 15 000 elements.
	Elems func(dst []int) []int
}

// Doc is a document as its index sees it.
type Doc interface {
	// Before reports whether node a precedes node b in document order.
	Before(a, b int) bool
	// AppendKey appends an order-preserving byte encoding of node id's
	// label to dst: bytes.Compare on two encodings must agree with
	// document order, and encodings must be unique per live node. Under
	// a scheme without one it fails for every node with
	// ErrNoOrderedKeys.
	AppendKey(dst []byte, id int) ([]byte, error)
	// AppendElems appends every live element id to dst in document
	// order, from a walk of the document itself: what a backend fills
	// its all-elements memo from.
	AppendElems(dst []int) []int
	// Symbols is the table that codes the document's element names; a
	// backend keeps its per-name state by code.
	Symbols() *symtab.Table
}

// doc returns what b binds: b.Doc, or b's funcs with syms (a new table
// if nil) for the element names.
func (b Binding) doc(syms *symtab.Table) Doc {
	if b.Doc != nil {
		return b.Doc
	}
	if syms == nil {
		syms = symtab.New()
	}
	return &funcDoc{b: b, syms: syms}
}

// funcDoc is a Binding given as funcs, as a Doc.
type funcDoc struct {
	b    Binding
	syms *symtab.Table
}

func (f *funcDoc) Before(a, b int) bool   { return f.b.Before(a, b) }
func (f *funcDoc) Symbols() *symtab.Table { return f.syms }

func (f *funcDoc) AppendKey(dst []byte, id int) ([]byte, error) {
	if f.b.Key == nil {
		return nil, ErrNoOrderedKeys
	}
	return f.b.Key(dst, id)
}

// AppendElems returns nil when the binding has no Elems.
func (f *funcDoc) AppendElems(dst []int) []int {
	if f.b.Elems == nil {
		return nil
	}
	return f.b.Elems(dst)
}

// listElems is the all-elements list of a backend over d that holds n
// ids: the document's own walk or, for a binding without one, the
// definition — every per-name list, which concat appends to its
// argument, sorted by Before.
func listElems(d Doc, n int, concat func(dst []int) []int) []int {
	all := make([]int, 0, n)
	if walked := d.AppendElems(all); walked != nil {
		return walked
	}
	all = concat(all)
	sort.Slice(all, func(i, j int) bool { return d.Before(all[i], all[j]) })
	return all
}

// Stats describes a backend for surfacing through Handle.Stats and
// the HTTP stats endpoint, in the form the tags give.
type Stats struct {
	// Backend is the backend name: "slice" or "paged".
	Backend string `json:"backend"`
	// Entries is the number of indexed elements.
	Entries int `json:"entries"`
	// MaxLabel is the longest Binding.Key encoding, in bytes, the
	// backend can index; zero means any. Add refuses a longer one with
	// ErrLabelTooLong.
	MaxLabel int `json:"max_label,omitempty"`
	// ResidentPages and AllocatedPages describe the page cache and
	// file; zero for the slice backend.
	ResidentPages  int `json:"resident_pages,omitempty"`
	AllocatedPages int `json:"allocated_pages,omitempty"`
	// CacheHits, CacheMisses and Writebacks are cumulative pager
	// counters; zero for the slice backend.
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	Writebacks  uint64 `json:"writebacks,omitempty"`
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
	// returns each node's element name, which the binding's symbol
	// table interns. Build may reorder elems and the index may keep it,
	// as the array its lists are carved from, so the caller hands elems
	// over, sized exactly.
	Build(elems []int, nameOf func(int) string) error

	// Add indexes one new element node. The node's label must already
	// be assigned (the binding is consulted).
	Add(name string, id int) error

	// Remove drops every doomed node from the index. nameOf reports
	// each node's element name ("" for non-elements, which are
	// skipped). Must be called while the doomed nodes' labels are
	// still live; Remove keeps neither doomed nor nameOf.
	Remove(doomed map[int]bool, nameOf func(int) string) error

	// IDs returns the ids of elements named name in document order, nil
	// for a name the binding's symbol table does not hold. Callers must
	// not mutate or retain the slice across index mutations.
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
	// documents: b's symbol table must be the original's. Paged clones
	// share the page file copy-on-write.
	Clone(b Binding) (Backend, error)

	// Err reports, and clears, the error a degraded read recorded
	// since the previous call (always nil for slice).
	Err() error

	// Close releases resources. The index is unusable afterwards.
	Close() error
}

// groupByName interns each element's name and groups elems by symbol in
// place, each name's ids in the order elems lists them. It returns where
// each symbol's ids end; they begin where the previous symbol's end. A
// counting sort turns the 4 B array of symbols into each id's place, and
// a cycle walk moves every id there by swaps, so nothing of elems' size
// is copied. On an error elems is as it was.
func groupByName(elems []int, nameOf func(int) string, syms *symtab.Table) ([]int, error) {
	to := make([]uint32, len(elems)) // elems[i]'s symbol, then its place
	for i, id := range elems {
		var err error
		if to[i], err = syms.Intern(nameOf(id)); err != nil {
			return nil, err
		}
	}
	end := make([]int, syms.Len()) // where each symbol's ids start, then end
	for _, sym := range to {
		end[sym]++
	}
	for sym, sum := 0, 0; sym < len(end); sym++ {
		end[sym], sum = sum, sum+end[sym]
	}
	for i, sym := range to {
		to[i] = uint32(end[sym])
		end[sym]++
	}
	for i := range elems {
		for j := int(to[i]); j != i; j = int(to[i]) {
			elems[i], elems[j] = elems[j], elems[i]
			to[i], to[j] = to[j], to[i]
		}
	}
	return end, nil
}
