// Package scheme defines the common contract every labeling scheme in
// the evaluation implements, plus the structural bookkeeping they
// share. Nodes are identified by dense integer ids (document order at
// build time; insertions allocate fresh ids). Relationship predicates
// must be answered from the labels — that is the whole point of a
// labeling scheme — while the Tree mirror exists for update plumbing
// (finding the neighbors of an insertion point) and for oracle checks
// in tests.
package scheme

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cow"
	"repro/internal/invariants"
	"repro/internal/xmltree"
)

// Labeling is a labeled document: what the paper's thirteen schemes
// share, and everything a served document asks of one. A scheme that
// cannot do something says so through the method's own result
// (ErrNoOrderedLabels, an inert LimitLabel); nothing is discovered by
// type assertion.
type Labeling interface {
	// Name returns the scheme's display name as used in the paper's
	// figures, e.g. "V-CDBS-Containment".
	Name() string
	// Len returns the number of currently labeled nodes (ids may be
	// sparse after deletions; Len counts live nodes).
	Len() int
	// Level returns the depth of node v (the root has level 1).
	Level(v int) int
	// IsAncestor reports whether u is a proper ancestor of v, decided
	// from the labels.
	IsAncestor(u, v int) bool
	// IsParent reports whether u is the parent of v, decided from the
	// labels.
	IsParent(u, v int) bool
	// IsSibling reports whether u and v are distinct siblings.
	IsSibling(u, v int) bool
	// Before reports document order, decided from the labels.
	Before(u, v int) bool
	// TotalLabelBits returns the storage footprint of all labels
	// under the paper's accounting (Figure 5).
	TotalLabelBits() int64
	// LabelBytes returns the heap the labels occupy, structural mirror
	// excluded, so that a memory estimate charges what they occupy. A
	// scheme that holds each label as heap objects of its own answers
	// BoxedLabelBytes per id.
	LabelBytes() int64
	// MarshalLabel returns node v's label in its storage form.
	MarshalLabel(v int) ([]byte, error)
	// InsertChildAt inserts a fresh element node as the pos-th child
	// of parent. It returns the new node's id and how many existing
	// nodes had to be re-labeled (0 for fully dynamic schemes; for
	// Prime, the number of SC values recomputed).
	InsertChildAt(parent, pos int) (newID int, relabeled int, err error)
	// InsertSubtree inserts a whole fragment with the shape of the
	// given element tree as the pos-th child of parent, labeling every
	// fragment node in one batch (Algorithm 2's even subdivision keeps
	// bulk labels short). It returns the new ids in preorder and the
	// re-label count for existing nodes.
	InsertSubtree(parent, pos int, shape *xmltree.Node) (ids []int, relabeled int, err error)
	// InsertSubtrees inserts fragments with the shapes of the given
	// element trees as consecutive children of parent starting at
	// position pos. The whole run takes the label-assignment write
	// path once, so dynamic codecs place every code of the run into
	// the single gap at (parent, pos) with one even subdivision
	// (EncodeBetween) — short codes, one validation — instead of
	// splitting the gap once per fragment. It returns one preorder id
	// slice per fragment and the total re-label count for existing
	// nodes.
	InsertSubtrees(parent, pos int, shapes []*xmltree.Node) (ids [][]int, relabeled int, err error)
	// DeleteSubtree removes node v and its descendants. Deletion
	// never affects the relative order of the remaining labels
	// (Section 5.2.1 of the paper), so nothing is re-labeled; the
	// count of removed nodes is returned. Deleted ids must not be
	// passed to any predicate afterwards.
	DeleteSubtree(v int) (removed int, err error)
	// LimitLabel makes every later insert that would give a node an
	// ordered label longer than max bytes fail, before it changes
	// anything, with an error matching ErrLabelTooLong: the owner of a
	// key store with a size ceiling (the paged index) has the insert
	// that would cross it refused while it is still harmless. Zero
	// lifts the limit; clones inherit it. Inert under a scheme without
	// ordered labels.
	LimitLabel(max int)
	// LongestLabel returns the length in bytes of the longest ordered
	// label assigned so far (deleted nodes included); zero under a
	// scheme without ordered labels.
	LongestLabel() int
	// Tree exposes the structural mirror (for tests and harnesses).
	Tree() *Tree

	Cloner
	OrderedLabeler
}

// Cloner is part of Labeling; benchmark/layers.go:181 keeps the name alive.
type Cloner interface {
	// CloneLabeling returns a labeling that answers exactly as the
	// receiver does now and can be edited independently of it. The
	// contract is about observability, not about memory: no write on
	// either side may ever be observable on the other, and cloning
	// must not write to the original (readers may be traversing it),
	// but state that is immutable once written — labels, parent
	// pointers, depths — may be shared, under the rules of package
	// cow.
	CloneLabeling() Labeling
}

// OrderedLabeler is part of Labeling; benchmark/layers.go:192 and stacks.go:713 keep the name alive.
type OrderedLabeler interface {
	// AppendOrderedLabel appends node v's order-preserving label bytes
	// to dst: bytes.Compare on two encodings agrees with Before, and
	// every live node's encoding is unique. Paged index storage
	// (internal/store) keys its B-tree with these bytes. A scheme
	// whose labels have no such form fails, for every node, with an
	// error matching ErrNoOrderedLabels, and is restricted to the
	// in-memory slice backend.
	AppendOrderedLabel(dst []byte, v int) ([]byte, error)
}

// BoxedLabelBytes is the LabelBytes estimate per id ever allocated of
// a scheme that holds each label as heap objects of its own (prefix,
// Prime).
const BoxedLabelBytes = 80

// Builder constructs a labeling over a document.
type Builder func(doc *xmltree.Document) (Labeling, error)

// Ordered reports whether l's labels have an order-preserving byte
// form, which is a property of the scheme: the root's label answers
// for all.
func Ordered(l Labeling) bool {
	_, err := l.AppendOrderedLabel(nil, 0)
	return !errors.Is(err, ErrNoOrderedLabels)
}

// InsertSiblingBefore inserts a fresh element node as the immediately
// preceding sibling of v.
func InsertSiblingBefore(l Labeling, v int) (newID int, relabeled int, err error) {
	parent, pos, err := l.Tree().SiblingPosition(v)
	if err != nil {
		return 0, 0, err
	}
	return l.InsertChildAt(parent, pos)
}

// ErrBadNode reports a node id that is out of range or dead.
var ErrBadNode = errors.New("scheme: bad node id")

// ErrLabelTooLong reports an insert refused under LimitLabel: the new
// node's ordered label would not fit the limit. The labeling is
// unchanged; inserting elsewhere, or into a wider gap, still works.
var ErrLabelTooLong = errors.New("scheme: ordered label exceeds the key store's limit")

// ErrNoOrderedLabels reports a labeling whose label bytes do not sort
// like document order, so it cannot feed an order-preserving key
// store. AppendOrderedLabel wraps it.
var ErrNoOrderedLabels = errors.New("scheme: labels have no order-preserving byte form")

// Tree is the structural mirror every labeling keeps: parent pointers
// and ordered child lists by node id. It is bookkeeping for updates,
// not part of any label.
//
// A node's parent and depth are written once per id, so a Tree and its
// clones share that column (cow.Column). A tree from NewTree holds its
// child lists in Children and edits them in place, cloned or not. Its
// clone packs them into a cow.Arena of child ids, shared by every clone
// descended from it, and finds a list through an index: a has-children
// bit per id, ranked, and an offset per id that has children. An edit
// copies the parent's run to the arena's end, or shifts it in place if
// this tree appended it since the family's last fork. A clone shares the
// index and keeps the runs it changes in an overlay sorted by id; past
// √Cap() entries, or more dead slots than live, the writer folds: it
// repacks the live lists into an arena and index of its own. Read a list
// through Kids.
type Tree struct {
	up cow.Column[link]
	// Children is every id's ordered child list, Cap() long, on a tree
	// from NewTree; nil on a clone, whose lists are runs of kids.
	Children [][]int
	dead     []uint64 // bit v set: id v was removed by deletion
	live     int

	kids cow.Arena[int] // the child lists' runs
	base index          // the runs as packed; never written
	over []patch        // the runs that differ from base, sorted by id

	// fork counts the clones taken in the family. Since the last it saw,
	// the runs from offset mark up are this tree's alone, and so is dead
	// if ownDead.
	fork    cow.Epoch
	mark    int
	ownDead bool
}

// span is a child list's run in a tree's arena.
type span struct{ off, n int32 }

// patch is an overlay entry: node id's run.
type patch struct {
	id int32
	s  span
}

// index is a packed arena's directory, one slice: per 32 ids a word
// whose bit v&31 is set if id v has children, and the position in the
// index of the first of that word's offsets; then, in id order, the
// arena offset of each id with children, and the arena's end. A run
// ends where the next begins. The offsets begin at x[1]: an id whose
// word would lie there has no run.
type index []uint32

// span returns v's packed run: a bit test, a popcount and two loads.
func (x index) span(v int) span {
	w := v >> 5 << 1
	if w >= int(x[1]) {
		return span{}
	}
	bit := uint32(1) << (v & 31)
	if x[w]&bit == 0 {
		return span{}
	}
	i := int(x[w+1]) + bits.OnesCount32(x[w]&(bit-1))
	return span{int32(x[i]), int32(x[i+1] - x[i])}
}

// link is a node's way up: its parent id, -1 for the root, and its
// depth, 1 for the root.
type link struct{ parent, depth int32 }

// NewTree mirrors a document, with node ids in document order
// (xmltree's Walk, which has each node's parent at hand), over columns
// sized from one count. A child list gets exactly the room it needs.
func NewTree(doc *xmltree.Document) *Tree {
	n := doc.Len()
	up := make([]link, n)
	t := &Tree{
		up:       cow.NewColumn(up),
		Children: make([][]int, n),
		dead:     make([]uint64, n/64+1),
		live:     n,
		fork:     cow.NewEpoch(),
		ownDead:  true,
	}
	doc.Walk(func(id int, node *xmltree.Node, parent, depth int) {
		up[id] = link{int32(parent), int32(depth)}
		if len(node.Children) > 0 {
			t.Children[id] = make([]int, 0, len(node.Children))
		}
		if parent >= 0 {
			t.Children[parent] = append(t.Children[parent], id)
		}
	})
	return t
}

// Clone returns a tree that answers as t does now and can be edited
// independently of it, for CloneLabeling. A clone of a tree with
// Children packs them into a fresh arena and index, 8 B per child and
// 4 B per parent; any other copies t's overlay, with room for the entry
// the next edit most likely adds, and shares the rest: the arena, the
// index and the dead bits, clipped so that a word the clone appends goes
// to an array of its own. It does not write to t.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		up:   t.up,
		dead: slices.Clip(t.dead),
		live: t.live,
		kids: t.kids,
		base: t.base,
		fork: t.fork.Fork(),
		mark: t.kids.End(),
	}
	if t.Children != nil {
		c.kids, c.base = packed(t.Cap(), t.liveSlots(), func(v int) []int { return t.Children[v] })
		c.mark = 0
	}
	if len(t.over) > 0 {
		c.over = append(make([]patch, 0, len(t.over)+1), t.over...)
	}
	return c
}

// Bytes estimates the mirror's heap: the columns and, with Children,
// the headers and each id's entry in its parent's list; without, the
// span array, the overlay and the arena's chunks.
func (t *Tree) Bytes() int64 {
	b := t.up.Bytes() + 8*int64(cap(t.dead))
	if t.Children != nil {
		return b + 24*int64(cap(t.Children)) + 8*int64(t.Cap())
	}
	return b + 4*int64(cap(t.base)) + 12*int64(cap(t.over)) + t.kids.Bytes()
}

// Packing reports a clone's arena: the slots its runs have taken and
// how many of them no list reads any more, and its overlay's length.
// All three are zero on a tree with Children.
func (t *Tree) Packing() (slots, dead, over int) {
	return t.kids.Used(), max(t.deadSlots(), 0), len(t.over)
}

// Parent returns v's parent id, -1 for the root.
func (t *Tree) Parent(v int) int { return int(t.up.At(v).parent) }

// Depth returns v's depth; the root's is 1.
func (t *Tree) Depth(v int) int { return int(t.up.At(v).depth) }

// Kids returns v's ordered child ids, nil for a dead id. The slice is
// the tree's own: read it, never write it.
func (t *Tree) Kids(v int) []int {
	if t.Children != nil {
		return t.Children[v]
	}
	if !t.Alive(v) {
		return nil
	}
	return t.run(t.span(v))
}

// run returns s's ids, aliasing the arena.
func (t *Tree) run(s span) []int {
	if s.n == 0 {
		return nil
	}
	return t.kids.From(int(s.off))[:s.n:s.n]
}

// Child returns the k-th child of v.
func (t *Tree) Child(v, k int) int { return t.Kids(v)[k] }

// span returns v's run: its overlay entry, or else its packed one.
func (t *Tree) span(v int) span {
	if i, ok := t.find(v); ok {
		return t.over[i].s
	}
	return t.base.span(v)
}

// find returns where id v's entry is, or would go, in the overlay.
func (t *Tree) find(v int) (int, bool) {
	lo, hi := 0, len(t.over)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(t.over[m].id) < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.over) && int(t.over[lo].id) == v
}

// setSpan makes s v's run, folding the overlay when it has grown past
// √Cap() entries, the arena holds more dead slots than live ones, or
// it has passed maxOffset.
func (t *Tree) setSpan(v int, s span) {
	if i, ok := t.find(v); ok {
		t.over[i].s = s
	} else {
		t.over = slices.Insert(t.over, i, patch{int32(v), s})
	}
	if n := len(t.over); n*n > t.Cap() || t.deadSlots() > t.liveSlots() || t.kids.End() > maxOffset {
		t.fold()
	}
}

// fold repacks t's live lists into an arena and index of its own, in
// which a dead id's run is empty, and empties the overlay. At √Cap()
// entries a fold's 8 B per child and 4 B per parent are about what the
// clones since the last one copied of the overlay, and the arena holds
// at most about twice what its lists do.
func (t *Tree) fold() {
	t.kids, t.base = packed(t.Cap(), t.liveSlots(), t.Kids)
	t.mark, t.over = 0, t.over[:0]
}

// prepare readies t for a write: after a clone taken anywhere in the
// family, t owns no run it has and not its dead bits.
func (t *Tree) prepare() {
	if t.fork.Refresh() {
		t.mark, t.ownDead = t.kids.End(), false
	}
}

// liveSlots is how many ids the live lists hold: every live node but
// the root is in its parent's. The rest of the arena's slots are dead.
func (t *Tree) liveSlots() int { return max(t.live-1, 0) }
func (t *Tree) deadSlots() int { return t.kids.Used() - t.liveSlots() }

// insert returns s's run with id at pos: s itself, shifted in place, if
// t appended it since the last fork and it is the arena's last (no run
// is empty, so it lies in the open chunk) with room after it; else a
// copy at the arena's end.
func (t *Tree) insert(s span, pos, id int) span {
	if s.n > 0 && int(s.off) >= t.mark && int(s.off+s.n) == t.kids.End() && t.kids.Extend(1) {
		s.n++
		run := t.run(s)
		copy(run[pos+1:], run[pos:])
		run[pos] = id
		return s
	}
	old := t.run(s)
	off, run := t.kids.Grow(len(old) + 1)
	copy(run, old[:pos])
	run[pos] = id
	copy(run[pos+1:], old[pos:])
	return span{int32(off), s.n + 1}
}

// cut returns s's run without its i-th id: s itself, shifted in place,
// if t appended it since the last fork, else a copy at the arena's end.
func (t *Tree) cut(s span, i int) span {
	old := t.run(s)
	if int(s.off) >= t.mark {
		copy(old[i:], old[i+1:])
		return span{s.off, s.n - 1}
	}
	if s.n == 1 {
		return span{}
	}
	off, run := t.kids.Grow(len(old) - 1)
	copy(run, old[:i])
	copy(run[i:], old[i+1:])
	return span{int32(off), s.n - 1}
}

// Len returns the number of live nodes.
func (t *Tree) Len() int { return t.live }

// Cap returns the number of node ids ever allocated (live and dead).
func (t *Tree) Cap() int { return t.up.Len() }

// Alive reports whether id v names a live node.
func (t *Tree) Alive(v int) bool { return v >= 0 && v < t.Cap() && t.dead[v>>6]>>(v&63)&1 == 0 }

// ValidateInsert checks that parent is a live id and pos a valid
// child position.
func (t *Tree) ValidateInsert(parent, pos int) error {
	if !t.Alive(parent) {
		return fmt.Errorf("%w: parent %d", ErrBadNode, parent)
	}
	if n := len(t.Kids(parent)); pos < 0 || pos > n {
		return fmt.Errorf("scheme: child position %d out of range [0,%d]", pos, n)
	}
	return nil
}

// AddChild records a fresh node as the pos-th child of parent and
// returns its id.
func (t *Tree) AddChild(parent, pos int) int {
	t.prepare()
	id := t.Cap()
	t.up.Append(link{int32(parent), t.up.At(parent).depth + 1})
	if id>>6 == len(t.dead) {
		// A clone's dead bits are clipped, so the word never lands in
		// an array another tree reads.
		t.dead = append(t.dead, 0)
	}
	t.live++
	if t.Children != nil {
		t.Children = append(t.Children, nil)
		t.Children[parent] = slices.Insert(t.Children[parent], pos, id)
	} else {
		t.setSpan(parent, t.insert(t.span(parent), pos, id))
	}
	return id
}

// RemoveSubtree detaches node v and its descendants, marking their
// ids dead. Only the parent's list is written: a dead id's Kids are
// nil whatever its list was. It returns the number of removed nodes.
func (t *Tree) RemoveSubtree(v int) (int, error) {
	if !t.Alive(v) {
		return 0, fmt.Errorf("%w: %d", ErrBadNode, v)
	}
	t.prepare()
	if !t.ownDead {
		t.dead, t.ownDead = slices.Clone(t.dead), true
	}
	removed := 0
	var kill func(int)
	kill = func(u int) {
		list := t.Kids(u)
		t.dead[u>>6] |= 1 << (u & 63)
		removed++
		for _, c := range list {
			kill(c)
		}
		if t.Children != nil {
			t.Children[u] = nil
		}
	}
	kill(v)
	t.live -= removed
	if p := t.Parent(v); p != -1 {
		if i := slices.Index(t.Kids(p), v); i >= 0 && t.Children != nil {
			t.Children[p] = slices.Delete(t.Children[p], i, i+1)
		} else if i >= 0 {
			t.setSpan(p, t.cut(t.span(p), i))
		}
	}
	return removed, nil
}

// SiblingPosition returns v's parent and its position among that
// parent's children.
func (t *Tree) SiblingPosition(v int) (parent, pos int, err error) {
	if !t.Alive(v) {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadNode, v)
	}
	parent = t.Parent(v)
	if parent == -1 {
		return 0, 0, fmt.Errorf("scheme: node %d is the root and has no siblings", v)
	}
	if i := slices.Index(t.Kids(parent), v); i >= 0 {
		return parent, i, nil
	}
	return 0, 0, fmt.Errorf("%w: %d not found under parent %d", ErrBadNode, v, parent)
}

// SubtreeLast returns the id of the last node, in document order, of
// the subtree rooted at v (v itself for a leaf).
func (t *Tree) SubtreeLast(v int) int {
	for list := t.Kids(v); len(list) > 0; list = t.Kids(v) {
		v = list[len(list)-1]
	}
	return v
}

// SubtreeSize returns the node count of the subtree rooted at v.
func (t *Tree) SubtreeSize(v int) int {
	size := 1
	for _, c := range t.Kids(v) {
		size += t.SubtreeSize(c)
	}
	return size
}

// IsAncestorStructural is the oracle answer used by tests to verify
// label-derived predicates.
func (t *Tree) IsAncestorStructural(u, v int) bool {
	for p := t.Parent(v); p != -1; p = t.Parent(p) {
		if p == u {
			return true
		}
	}
	return false
}

// PreOrder returns node ids in current document order. The root, first
// in document order at build time, is id 0.
func (t *Tree) PreOrder() []int {
	if !t.Alive(0) {
		return nil
	}
	out := make([]int, 0, t.Cap())
	var walk func(int)
	walk = func(v int) {
		out = append(out, v)
		for _, c := range t.Kids(v) {
			walk(c)
		}
	}
	walk(0)
	return out
}

// A cloned tree's arena has strides of 4 096 ids and chunks of at least
// 64. An arena past maxOffset is repacked at the next edit, so that a
// span's int32 never overflows.
const (
	strideShift = 12
	minChunk    = 64
	maxOffset   = 1 << 30
)

// packed returns a fresh arena of the runs list gives for the ids below
// ids, in id order, and its index. The runs must hold slots ids in all:
// a dead id's run is empty.
func packed(ids, slots int, list func(v int) []int) (cow.Arena[int], index) {
	parents := 0
	for v := range ids {
		if len(list(v)) > 0 {
			parents++
		}
	}
	words := ids>>5 + 1
	x := make(index, 2*words+parents+1)
	first := make([]int, 0, slots)
	at := 2 * words
	for v := range ids {
		w := v >> 5 << 1
		if v&31 == 0 {
			x[w+1] = uint32(at)
		}
		if l := list(v); len(l) > 0 {
			x[w] |= 1 << (v & 31)
			x[at], at = uint32(len(first)), at+1
			first = append(first, l...)
		}
	}
	x[at] = uint32(len(first))
	if invariants.Enabled {
		if len(first) != slots {
			invariants.Violated("scheme", "packed %d slots, want the %d live ones", len(first), slots)
		}
		for v := range ids {
			s := x.span(v)
			if !slices.Equal(first[s.off:s.off+s.n], list(v)) {
				invariants.Violated("scheme", "id %d reads back %v, packed from %v", v, first[s.off:s.off+s.n], list(v))
			}
		}
	}
	a := cow.NewArena[int](strideShift, minChunk)
	a.Start(first, len(first))
	return a, x
}
