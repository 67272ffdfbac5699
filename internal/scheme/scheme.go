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
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

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
// clones share that column (cow.Column). Each child list is a run in a
// cow.Arena of child ids, found through a directory cut into chunks of
// chunkIDs ids. Clones share the arena and the chunks: a tree copies a
// chunk the first time it writes it after a fork, and a run the first
// time it edits it, to the arena's end. A run it wrote since the family's
// last fork it edits in place, growing into the -1 filler after it, and
// one that outgrows its room moves to the arena's end with as many
// fillers again. NewTree lays every run with one filler, in the form a
// live document edits. Every tree edits its runs; Unpack gives a
// labeling built alone Children, a read-only mirror of them that set keeps
// up, and Adopt drops it. A tree repacks its lists exact, into an arena
// and a directory of its own, once the slots neither a live run nor a
// filler holds pass a bound (see prepare); a clone packs them instead of
// sharing them (see Clone). Read a list through Kids.
type Tree struct {
	up cow.Column[link]
	// Children mirrors Kids, Cap() long, on a tree Unpack was called on
	// and Adopt has not been since; nil otherwise. Read it, never write it.
	Children [][]int
	live     int

	dir  []*chunk       // dir[i] describes the ids from i<<chunkShift
	kids cow.Arena[int] // the child lists' runs

	// fork counts the clones taken in the family. Since the last it saw,
	// the runs from offset mark up are this tree's alone, and so is a
	// chunk stamped with that count, and the table of chunks if table is.
	fork  cow.Epoch
	table uint64
	mark  int
	// fillers counts the -1 slots from mark up that the run before each
	// may still take; a run moved, emptied or dead retires its own (-2).
	fillers int
}

// A chunk describes chunkIDs ids: per 32 of them a word of has-a-run
// bits, a word of dead bits and the number of runs in the chunk's
// earlier words; then, in id order, each run's offset in the arena (4 B)
// and its length (1 B). A run of longRun ids or more holds its length in
// the arena slot before it. E20 in EXPERIMENTS.md measures the size.
type chunk struct {
	stamp uint64 // the fork count of the tree that wrote it
	words [chunkWords]word
	runs  []byte
}

type word struct{ has, dead, rank uint32 }

const (
	chunkShift = 8
	chunkIDs   = 1 << chunkShift
	chunkWords = chunkIDs / 32
	runBytes   = 5
	longRun    = 255
)

// span is a child list's run in a tree's arena.
type span struct{ off, n uint32 }

// link is a node's way up: its parent id, -1 for the root, and its
// depth, 1 for the root.
type link struct{ parent, depth int32 }

// NewTree mirrors a document, with node ids in document order
// (xmltree's Walk, which has each node's parent at hand), over columns
// sized from one count, in the form a live document edits: every child
// list is a run in one slab with a filler after it, and every chunk of
// the directory lies in one backing array. The walk writes each id into
// its parent's run through a cursor per depth, so no list header is made.
func NewTree(doc *xmltree.Document) *Tree {
	n, parents, slots := 0, 0, 0
	doc.Walk(func(_ int, node *xmltree.Node, _, _ int) {
		n++
		if k := len(node.Children); k > 0 {
			parents, slots = parents+1, slots+header(k)+k+1
		}
	})
	up := make([]link, n)
	p := newPacker(n, parents, slots, 0)
	var next [][]int // next[d]: the slots left for the children of the last node at depth d+1
	doc.Walk(func(id int, node *xmltree.Node, parent, depth int) {
		up[id] = link{int32(parent), int32(depth)}
		if parent >= 0 {
			next[depth-2][0], next[depth-2] = id, next[depth-2][1:]
		}
		if k := len(node.Children); k > 0 {
			next = append(next[:depth-1], p.add(id, k, 1))
		}
	})
	t := &Tree{up: cow.NewColumn(up), live: n, fork: cow.NewEpoch(), fillers: parents}
	t.kids, t.dir = p.finish()
	return t
}

// Unpack gives t Children, for a labeling built alone whose readers
// index the lists: each list is its run, with no room, so that a reader's
// append copies it. t's edits keep the mirror up; its clones have none.
func (t *Tree) Unpack() {
	t.Children = make([][]int, t.Cap())
	t.mirror()
}

// Adopt drops t's Children, so that t is a live document's tree.
func (t *Tree) Adopt() { t.Children = nil }

// mirror lays Children, if t has them, over every live run, as Unpack
// does and a repack, which moves every run, must.
func (t *Tree) mirror() {
	if t.Children != nil {
		t.lists(func(v int, kids []int) { t.Children[v] = kids })
	}
}

// Clone returns a tree that answers as t does now and can be edited
// independently of it, for CloneLabeling, without Children. It shares
// t's arena, its chunks and their table, which each copies at its first
// edit (see prepare). The first clone of a family, each run of which a
// filler no tree may take after a fork follows, packs the lists into a
// fresh arena and directory instead, 8 B per child and 5 B per parent. It
// does not write to t.
func (t *Tree) Clone() *Tree {
	exact := t.fork.Alone()
	c := &Tree{up: t.up, live: t.live, dir: t.dir, kids: t.kids, fork: t.fork.Fork(), mark: t.kids.End()}
	if exact {
		c.kids, c.dir = pack(t, c.fork.Seen(), -1, 0)
		c.mark, c.table = 0, c.fork.Seen()
	}
	return c
}

// Bytes estimates the mirror's heap: the column, the arena's chunks, the
// directory's chunks and their table. Children, which no served
// document's tree has, are not counted.
func (t *Tree) Bytes() int64 {
	b := t.up.Bytes() + t.kids.Bytes() + 8*int64(cap(t.dir))
	for _, c := range t.dir {
		b += int64(unsafe.Sizeof(*c)) + int64(cap(c.runs))
	}
	return b
}

// Packing reports the arena: the slots its runs have taken and how many
// of them hold neither a live list's id nor its length, fillers
// included.
func (t *Tree) Packing() (slots, dead int) {
	dead = t.kids.Used()
	t.lists(func(_ int, kids []int) { dead -= header(len(kids)) + len(kids) })
	return t.kids.Used(), dead
}

// Parent returns v's parent id, -1 for the root.
func (t *Tree) Parent(v int) int { return int(t.up.At(v).parent) }

// Depth returns v's depth; the root's is 1.
func (t *Tree) Depth(v int) int { return int(t.up.At(v).depth) }

// Kids returns v's ordered child ids, nil for a dead id. The slice is
// the tree's own: read it, never write it.
func (t *Tree) Kids(v int) []int {
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

// word returns the chunk that describes id v, v's word in it and v's
// bit in the word.
func (t *Tree) word(v int) (*chunk, *word, uint32) {
	c := t.dir[v>>chunkShift]
	return c, &c.words[v>>5&(chunkWords-1)], 1 << (v & 31)
}

// span returns v's run: a bit test, a popcount and two loads. A dead id,
// and one that never had children, has none.
func (t *Tree) span(v int) span {
	if uint(v) >= uint(t.Cap()) {
		return span{}
	}
	c, w, bit := t.word(v)
	if w.has&bit == 0 || w.dead&bit != 0 {
		return span{}
	}
	r := c.runs[runBytes*(int(w.rank)+bits.OnesCount32(w.has&(bit-1))):]
	s := span{binary.LittleEndian.Uint32(r), uint32(r[4])}
	if s.n == longRun {
		s.n = uint32(t.kids.From(int(s.off) - 1)[0])
	}
	return s
}

// ownWord is word for a write: unless t wrote v's chunk since the
// family's last fork, it first puts a copy of its own in the chunk's
// place, with room for one more run.
func (t *Tree) ownWord(v int) (*chunk, *word, uint32) {
	if c := t.dir[v>>chunkShift]; c.stamp != t.fork.Seen() {
		own := *c
		own.stamp, own.runs = t.fork.Seen(), append(make([]byte, 0, len(c.runs)+runBytes), c.runs...)
		t.dir[v>>chunkShift] = &own
	}
	return t.word(v)
}

// set makes s v's run, adding a run to v's chunk if v had none, and v's
// Children if t has them.
func (t *Tree) set(v int, s span) {
	if t.Children != nil {
		t.Children[v] = t.run(s)
	}
	c, w, bit := t.ownWord(v)
	i := runBytes * (int(w.rank) + bits.OnesCount32(w.has&(bit-1)))
	if w.has&bit == 0 {
		w.has |= bit
		for j := v>>5&(chunkWords-1) + 1; j < chunkWords; j++ {
			c.words[j].rank++
		}
		c.runs = append(c.runs, make([]byte, runBytes)...)
		copy(c.runs[i+runBytes:], c.runs[i:])
	}
	binary.LittleEndian.PutUint32(c.runs[i:], s.off)
	c.runs[i+4] = byte(min(s.n, longRun))
	if s.n >= longRun {
		t.owned(int(s.off) - 1)
		t.kids.From(int(s.off) - 1)[0] = int(s.n)
	}
}

// header is how many slots before a run of n ids hold its length.
func header(n int) int {
	if n >= longRun {
		return 1
	}
	return 0
}

// prepare readies t to edit, and v's list to grow (v < 0: none does).
// After a clone taken anywhere in the family, t owns no run and no chunk,
// and shares its table of chunks, which its first edit since copies. A
// repack lays every live list exact, and v's with as many fillers as it
// has ids and one more, so the edit fits. It counts the slots that
// neither a live run nor a filler holds, at most one filler per live id:
// a run cut in place keeps a filler per id it loses, and with all counted
// a root cut from 10 000 ids to 10 kept 10 002 slots
// (TestShrunkRunRepacks). Two triggers pull apart. The first edit after a
// fork repacks once they pass a fifth of the live ones and a chunk's
// worth: a served document forks before nearly every edit, each of which
// copies the run it edits, and waiting for dead to pass live left
// TestForkedTreeBytes's tenant order at 27.1 B a live node (bound 20); of
// 1/3 to 1/8, a fifth is the only one that also keeps
// TestEditBytesBounded's 1k-element history under 9.2 KB (8.0). Any other
// edit repacks once they outnumber the live ones by a chunk's worth, or
// the arena has passed maxOffset: an owner's list that outgrows its room
// moves to twice it, so a repack is paid for by as many slots gone dead,
// where a fifth raised label-updates' alloc_kb_per_op 0.36 → 0.55 KB.
func (t *Tree) prepare(v int) {
	if t.fork.Refresh() {
		t.mark, t.fillers = t.kids.End(), 0
	}
	live := max(t.live-1, 0) // every live node but the root is in its parent's list
	dead, fresh := t.kids.Used()-min(t.fillers, live)-live, t.table != t.fork.Seen()
	switch {
	case fresh && 5*dead > max(live, 5*minChunk) || dead > live+minChunk || t.kids.End() > maxOffset:
		room := len(t.Kids(v))
		if room > 0 {
			room++
		}
		t.kids, t.dir = pack(t, t.fork.Seen(), v, room)
		t.mark, t.fillers = 0, room
		t.mirror()
	case fresh:
		t.dir = slices.Clone(t.dir)
	}
	t.table = t.fork.Seen()
}

// edit rewrites v's list with id put at position i, or, for id < 0, with
// its i-th id taken out. A run t wrote since the family's last fork it
// edits in place: a cut gives the slot it frees to the fillers, an insert
// takes the filler after the run unless there is none or the run becomes
// long. Else the list moves to a copy at the arena's end, with as many
// fillers again if t wrote the run, so that a list its writer keeps
// growing moves O(log n) times; a run moved or emptied retires its own.
func (t *Tree) edit(v, i, id int) {
	s := t.span(v)
	old, n, mine := t.run(s), int(s.n)+1, int(s.off) >= t.mark
	if id < 0 {
		n -= 2
	}
	if mine && s.n > 0 {
		run := t.kids.From(int(s.off))
		if id < 0 || n != longRun && int(s.off+s.n) < t.kids.End() && int(s.n) < len(run) && run[s.n] == -1 {
			t.owned(int(s.off))
			if id < 0 {
				copy(run[i:], run[i+1:s.n])
				run[n] = -1
			} else {
				copy(run[i+1:n], run[i:s.n])
				run[i] = id
			}
			t.fillers -= n - int(s.n)
			t.set(v, span{s.off, uint32(n)})
			if n == 0 {
				t.retire(span{s.off, 0})
			}
			return
		}
		t.retire(s)
	}
	h, room := header(n), 0
	if mine && id >= 0 {
		room = n
	}
	if n == 0 {
		t.set(v, span{})
		return
	}
	off, run := t.kids.Grow(h + n + room)
	for j := h + n; j < len(run); j++ {
		run[j] = -1
	}
	t.fillers += room
	copy(run[h:], old[:i])
	if j := h + i; id >= 0 {
		run[j] = id
		copy(run[j+1:], old[i:])
	} else {
		copy(run[j:], old[i+1:])
	}
	t.set(v, span{uint32(off + h), uint32(n)})
}

// retire takes the fillers after run s, which t wrote and leaves, off
// the count, and writes -2 over them, so that no run before s takes them
// for its own.
func (t *Tree) retire(s span) {
	if int(s.off+s.n) >= t.kids.End() {
		return
	}
	rest := t.kids.From(int(s.off + s.n))
	for i := 0; i < len(rest) && rest[i] == -1; i++ {
		rest[i], t.fillers = -2, t.fillers-1
	}
}

// owned checks, under the invariants build, that t may write the arena
// slot at off in place: no clone shares it.
func (t *Tree) owned(off int) {
	if invariants.Enabled && off < t.mark {
		invariants.Violated("scheme", "arena slot %d, below the mark %d that a clone shares, written in place", off, t.mark)
	}
}

// Len returns the number of live nodes.
func (t *Tree) Len() int { return t.live }

// Cap returns the number of node ids ever allocated (live and dead).
func (t *Tree) Cap() int { return t.up.Len() }

// Alive reports whether id v names a live node.
func (t *Tree) Alive(v int) bool {
	if uint(v) >= uint(t.Cap()) {
		return false
	}
	_, w, bit := t.word(v)
	return w.dead&bit == 0
}

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
	t.prepare(parent)
	id := t.Cap()
	t.up.Append(link{int32(parent), t.up.At(parent).depth + 1})
	if id&(chunkIDs-1) == 0 {
		t.dir = append(t.dir, &chunk{stamp: t.fork.Seen()})
	}
	t.live++
	if t.Children != nil {
		t.Children = append(t.Children, nil)
	}
	t.edit(parent, pos, id)
	return id
}

// RemoveSubtree detaches node v and its descendants, marking their
// ids dead. Only the parent's list is written: a dead id's Kids are
// nil whatever its list was. It returns the number of removed nodes.
func (t *Tree) RemoveSubtree(v int) (int, error) {
	if !t.Alive(v) {
		return 0, fmt.Errorf("%w: %d", ErrBadNode, v)
	}
	t.prepare(-1)
	removed := 0
	var kill func(int)
	kill = func(u int) {
		list, s := t.Kids(u), t.span(u)
		if s.n > 0 && int(s.off) >= t.mark {
			t.retire(s)
		}
		if t.Children != nil {
			t.Children[u] = nil
		}
		_, w, bit := t.ownWord(u)
		w.dead |= bit
		removed++
		for _, c := range list {
			kill(c)
		}
	}
	kill(v)
	t.live -= removed
	if p := t.Parent(v); p != -1 {
		if i := slices.Index(t.Kids(p), v); i >= 0 {
			t.edit(p, i, -1)
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

// A tree's arena has strides of 4 096 ids and chunks of at least 64. An
// arena past maxOffset is repacked at the next edit, so that a run's
// offset never overflows.
const (
	strideShift = 12
	minChunk    = 64
	maxOffset   = 1 << 30
)

// lists calls f with every live id that has children, in id order, and
// its list: a walk of the directory's bits, which skips the ids that
// have no run.
func (t *Tree) lists(f func(v int, kids []int)) {
	for i, c := range t.dir {
		for j, w := range c.words {
			for b := w.has &^ w.dead; b != 0; b &= b - 1 {
				v := i<<chunkShift | j<<5 | bits.TrailingZeros32(b)
				if kids := t.Kids(v); len(kids) > 0 {
					f(v, kids)
				}
			}
		}
	}
}

// A packer lays out runs in id order, each in a slab after the one
// before, with its length before it if it is long and fillers after it,
// and the directory that finds them, its chunks in one backing array
// stamped stamp.
type packer struct {
	slab   []int
	at     int
	chunks []chunk
	runs   []byte
}

func newPacker(ids, runs, slots int, stamp uint64) *packer {
	p := &packer{slab: make([]int, slots), chunks: make([]chunk, (ids+chunkIDs-1)>>chunkShift), runs: make([]byte, 0, runBytes*runs)}
	for i := range p.chunks {
		p.chunks[i].stamp = stamp
	}
	return p
}

// add lays v's run of n ids with free fillers after them and returns
// the slots for the caller to fill.
func (p *packer) add(v, n, free int) []int {
	p.chunks[v>>chunkShift].words[v>>5&(chunkWords-1)].has |= 1 << (v & 31)
	if n >= longRun {
		p.slab[p.at], p.at = n, p.at+1
	}
	p.runs = append(binary.LittleEndian.AppendUint32(p.runs, uint32(p.at)), byte(min(n, longRun)))
	run := p.slab[p.at : p.at+n]
	p.at += n
	for range free {
		p.slab[p.at], p.at = -1, p.at+1
	}
	return run
}

// finish ranks the runs and returns the arena and the directory.
func (p *packer) finish() (cow.Arena[int], []*chunk) {
	dir, r := make([]*chunk, len(p.chunks)), 0
	for i := range p.chunks {
		c, first := &p.chunks[i], r
		for j := range c.words {
			c.words[j].rank = uint32(r - first)
			r += bits.OnesCount32(c.words[j].has)
		}
		c.runs, dir[i] = p.runs[runBytes*first:runBytes*r:runBytes*r], c
	}
	a := cow.NewArena[int](strideShift, minChunk)
	a.Start(p.slab, len(p.slab))
	return a, dir
}

// pack returns a fresh arena of src's live lists, in id order, with
// room fillers after v's and none after any other, and its directory,
// stamped stamp, with src's dead bits.
func pack(src *Tree, stamp uint64, v, room int) (cow.Arena[int], []*chunk) {
	free := func(u int) int {
		if u == v {
			return room
		}
		return 0
	}
	runs, slots := 0, 0
	src.lists(func(u int, kids []int) { runs, slots = runs+1, slots+header(len(kids))+len(kids)+free(u) })
	p := newPacker(src.Cap(), runs, slots, stamp)
	src.lists(func(u int, kids []int) { copy(p.add(u, len(kids), free(u)), kids) })
	for i := range p.chunks {
		for j, w := range src.dir[i].words {
			p.chunks[i].words[j].dead = w.dead
		}
	}
	a, dir := p.finish()
	if invariants.Enabled {
		checkRuns(&Tree{up: src.up, dir: dir, kids: a}, src)
	}
	return a, dir
}

// checkRuns holds every id's list in got to want's.
func checkRuns(got, want *Tree) {
	for v := range want.Cap() {
		if g, w := got.Kids(v), want.Kids(v); !slices.Equal(g, w) {
			invariants.Violated("scheme", "id %d reads back %v, want %v", v, g, w)
		}
	}
}
