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
	"slices"

	"repro/internal/cow"
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
// clones share that column (cow.Column). A child list is shared until
// the first edit under that parent after a clone, which replaces it
// with a private copy.
type Tree struct {
	up       cow.Column[link]
	Children [][]int  // ordered child ids
	dead     []uint64 // bit v set: id v was removed by deletion
	live     int

	// own holds the parents below base whose child list is private to
	// this tree; the lists of ids from base up were created by it.
	own  cow.Owner[int]
	base int
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
		own:      cow.NewOwner[int](),
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
// independently of it, for CloneLabeling. It copies the child-list
// headers (24 B per id) and the dead bits flat — those exactly: a word
// more holds 64 ids, and append adds it — and shares the rest; it does
// not write to t.
func (t *Tree) Clone() *Tree {
	return &Tree{
		up:       t.up,
		Children: cow.Copy(t.Children),
		dead:     slices.Clone(t.dead),
		live:     t.live,
		own:      t.own.Fork(),
		base:     t.Cap(),
	}
}

// Bytes estimates the mirror's heap: the columns, what Clone copies
// flat, and each id's entry in its parent's list.
func (t *Tree) Bytes() int64 {
	return t.up.Bytes() + 24*int64(cap(t.Children)) + 8*int64(len(t.Children)+cap(t.dead))
}

// Parent returns v's parent id, -1 for the root.
func (t *Tree) Parent(v int) int { return int(t.up.At(v).parent) }

// Depth returns v's depth; the root's is 1.
func (t *Tree) Depth(v int) int { return int(t.up.At(v).depth) }

// ownsKids reports whether parent's child list may be edited in
// place.
func (t *Tree) ownsKids(parent int) bool {
	if t.own.Refresh() {
		t.base = t.Cap()
	}
	return parent >= t.base || t.own.Has(parent)
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
	if pos < 0 || pos > len(t.Children[parent]) {
		return fmt.Errorf("scheme: child position %d out of range [0,%d]", pos, len(t.Children[parent]))
	}
	return nil
}

// AddChild records a fresh node as the pos-th child of parent and
// returns its id.
func (t *Tree) AddChild(parent, pos int) int {
	id := t.Cap()
	kids := t.Children[parent]
	if !t.ownsKids(parent) {
		// Clipped, the insert below cannot fit and moves to a new array.
		kids = slices.Clip(kids)
		t.own.Add(parent)
	}
	t.up.Append(link{int32(parent), t.up.At(parent).depth + 1})
	t.Children = append(t.Children, nil)
	if id>>6 == len(t.dead) {
		t.dead = append(t.dead, 0)
	}
	t.live++
	t.Children[parent] = slices.Insert(kids, pos, id)
	return id
}

// RemoveSubtree detaches node v and its descendants, marking their
// ids dead. It returns the number of removed nodes.
func (t *Tree) RemoveSubtree(v int) (int, error) {
	if !t.Alive(v) {
		return 0, fmt.Errorf("%w: %d", ErrBadNode, v)
	}
	if p := t.Parent(v); p != -1 {
		kids := t.Children[p]
		if i := slices.Index(kids, v); i >= 0 {
			if !t.ownsKids(p) {
				kids = slices.Clone(kids)
				t.own.Add(p)
			}
			t.Children[p] = slices.Delete(kids, i, i+1)
		}
	}
	removed := 0
	var kill func(int)
	kill = func(u int) {
		t.dead[u>>6] |= 1 << (u & 63)
		t.live--
		removed++
		for _, c := range t.Children[u] {
			kill(c)
		}
		t.Children[u] = nil
	}
	kill(v)
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
	for i, c := range t.Children[parent] {
		if c == v {
			return parent, i, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: %d not found under parent %d", ErrBadNode, v, parent)
}

// SubtreeLast returns the id of the last node, in document order, of
// the subtree rooted at v (v itself for a leaf).
func (t *Tree) SubtreeLast(v int) int {
	for len(t.Children[v]) > 0 {
		v = t.Children[v][len(t.Children[v])-1]
	}
	return v
}

// SubtreeSize returns the node count of the subtree rooted at v.
func (t *Tree) SubtreeSize(v int) int {
	size := 1
	for _, c := range t.Children[v] {
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
		for _, c := range t.Children[v] {
			walk(c)
		}
	}
	walk(0)
	return out
}
