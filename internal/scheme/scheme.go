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
// clones share that column (cow.Column). The child lists are runs in a
// cow.Arena of child ids, found through an index: a has-children bit per
// id, ranked, and an offset per id that has children. NewTree carves
// them from one slab with a free slot after each and writes the index in
// the same walk, in the form a live document edits; Unpack lays Children
// headers over the runs for a labeling built alone, which edits them as
// slices, and Adopt drops them again.
// Until a clone is taken such a tree owns every run: an edit shifts a
// run in place while a free slot (a -1 filler) follows it, and moves a
// full one to the arena's end with as many free slots again, its packed
// slots forwarding to it; only an id packed without a run keeps its run
// in an overlay sorted by id. The first clone packs the lists exact, as
// a clone of a tree with Children does; a later clone shares the arena
// and index and copies the overlay. After a fork an edit
// copies the parent's run to the arena's end, or shifts it in place if
// this tree appended it since the family's last fork. Past √Cap()
// overlay entries after a fork, or more dead slots than live (the free
// slots runs may still fill aside), the writer folds: it repacks the
// live lists into an arena and index of its own. Read a list through
// Kids.
type Tree struct {
	up cow.Column[link]
	// Children is every id's ordered child list, Cap() long, on a tree
	// Unpack laid them over and Adopt has not dropped; nil otherwise.
	Children [][]int
	dead     []uint64 // bit v set: id v was removed by deletion
	live     int

	kids cow.Arena[int] // the child lists' runs
	base index          // the runs as packed; never written
	over []patch        // the runs the index does not find, sorted by id

	// fork counts the clones taken in the family. Since the last it saw,
	// the runs from offset mark up are this tree's alone, and so is dead
	// if ownDead.
	fork    cow.Epoch
	mark    int
	ownDead bool
	// slack: base's runs end in free slots that the index counts. own:
	// no clone has been taken since NewTree and no Children lie over the
	// runs, so t owns every run. spare counts the free slots the owner's
	// runs may still take in place.
	slack, own bool
	spare      int
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

// runs returns how many ids have a run.
func (x index) runs() int { return len(x) - 1 - int(x[1]) }

// link is a node's way up: its parent id, -1 for the root, and its
// depth, 1 for the root.
type link struct{ parent, depth int32 }

// NewTree mirrors a document, with node ids in document order
// (xmltree's Walk, which has each node's parent at hand), over columns
// sized from one count, in the form a live document edits: every child
// list is a run in one slab with room for one more id, a -1 filler in
// that slot, under an index that counts the free slot. The walk writes
// each id into its parent's run through a cursor per depth, so no list
// header is made. The tree owns every run until its first clone.
func NewTree(doc *xmltree.Document) *Tree {
	n, parents := 0, 0
	doc.Walk(func(_ int, node *xmltree.Node, _, _ int) {
		n++
		if len(node.Children) > 0 {
			parents++
		}
	})
	up := make([]link, n)
	slab := make([]int, max(n-1, 0)+parents)
	b, at := newIndexer(n, parents), 0
	var next []int // next[d]: where the last node at depth d+1 writes its next child
	doc.Walk(func(id int, node *xmltree.Node, parent, depth int) {
		up[id] = link{int32(parent), int32(depth)}
		if parent >= 0 {
			slab[next[depth-2]], next[depth-2] = id, next[depth-2]+1
		}
		if k := len(node.Children); k > 0 {
			b.add(id, at)
			next = append(next[:depth-1], at)
			slab[at+k], at = -1, at+k+1
		}
	})
	t := &Tree{
		up:      cow.NewColumn(up),
		dead:    make([]uint64, n/64+1),
		live:    n,
		kids:    cow.NewArena[int](strideShift, minChunk),
		base:    b.end(at),
		fork:    cow.NewEpoch(),
		ownDead: true,
		slack:   true,
		own:     true,
		spare:   parents,
	}
	t.kids.Start(slab, len(slab))
	return t
}

// Unpack lays Children over t's runs, each list its run without the
// free slot and that slot its spare capacity, for a labeling built
// alone, which edits them as slices. t must be as NewTree built it,
// neither edited nor cloned; it keeps the index, so Adopt can drop the
// headers again.
func (t *Tree) Unpack() {
	t.Children = make([][]int, t.Cap())
	for v := range t.Children {
		if s := t.base.span(v); s.n > 0 {
			t.Children[v] = t.kids.From(int(s.off))[: s.n-1 : s.n]
		}
	}
	t.own = false
}

// Adopt drops the Children that Unpack laid over t's runs, so that t is
// again as NewTree built it: a live document's tree, which owns every
// run until its first clone. A tree without Children is left as it is.
// t must not have been edited or cloned since Unpack.
func (t *Tree) Adopt() {
	lists := t.Children
	if lists == nil {
		return
	}
	t.Children, t.own = nil, true
	if invariants.Enabled {
		if !t.fork.Alone() {
			invariants.Violated("scheme", "adopted a tree that has been cloned")
		}
		checkRuns(t.kids, t.base, true, &Tree{up: t.up, Children: lists})
	}
}

// Clone returns a tree that answers as t does now and can be edited
// independently of it, for CloneLabeling. A clone of a tree with
// Children, or of one that owns every run and has never been cloned,
// packs the lists into a fresh arena and index, 8 B per child and 4 B
// per parent, with no free slot; any other copies t's overlay, with
// room for the entry the next edit most likely adds, and shares the
// rest: the arena, the index and the dead bits, clipped so that a word
// the clone appends goes to an array of its own. It does not write to t.
func (t *Tree) Clone() *Tree {
	exact := t.Children != nil || t.own && t.fork.Alone()
	c := &Tree{
		up:    t.up,
		dead:  slices.Clip(t.dead),
		live:  t.live,
		kids:  t.kids,
		base:  t.base,
		slack: t.slack,
		spare: t.spare,
		fork:  t.fork.Fork(),
		mark:  t.kids.End(),
	}
	if exact {
		c.kids, c.base = packed(t, false)
		c.mark, c.slack, c.spare = 0, false, 0
	} else if len(t.over) > 0 {
		c.over = append(make([]patch, 0, len(t.over)+1), t.over...)
	}
	return c
}

// Bytes estimates the mirror's heap: the columns, the index and the
// arena's chunks, and with Children the headers, without the overlay.
func (t *Tree) Bytes() int64 {
	b := t.up.Bytes() + 8*int64(cap(t.dead)) + t.kids.Bytes() + 4*int64(cap(t.base))
	if t.Children != nil {
		return b + 24*int64(cap(t.Children))
	}
	return b + 12*int64(cap(t.over))
}

// Packing reports the arena: the slots its runs have taken and how many
// of them no list reads any more (free slots included), and the
// overlay's length. All three are zero on a tree with Children.
func (t *Tree) Packing() (slots, dead, over int) {
	if t.Children != nil {
		return 0, 0, 0
	}
	return t.kids.Used(), max(t.deadSlots(), 0), len(t.over)
}

// Parent returns v's parent id, -1 for the root.
func (t *Tree) Parent(v int) int { return int(t.up.At(v).parent) }

// Depth returns v's depth; the root's is 1.
func (t *Tree) Depth(v int) int { return int(t.up.At(v).depth) }

// Kids returns v's ordered child ids, nil for a dead id. The slice is
// the tree's own: read it, never write it. It is span, less the
// record of where the run lies.
func (t *Tree) Kids(v int) []int {
	if t.Children != nil {
		return t.Children[v]
	}
	if !t.Alive(v) {
		return nil
	}
	b := t.base.span(v)
	if b.n == 0 || !t.own {
		if i, ok := t.find(v); ok {
			return t.run(t.over[i].s)
		}
		if b.n == 0 {
			return nil
		}
	}
	s, _ := packedRun(&t.kids, b, t.slack)
	return t.run(s)
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

// span returns v's run and where it is recorded. A tree that owns every
// run records none of its packed ids in the overlay, so it reads them
// without searching it.
func (t *Tree) span(v int) (span, where) {
	b := t.base.span(v)
	if !t.own || b.n == 0 {
		if i, ok := t.find(v); ok {
			return t.over[i].s, inOverlay
		}
	}
	return packedRun(&t.kids, b, t.slack)
}

// where says how an edit records a run's new place: in the index, which
// finds it where it was packed; in its packed run's first two slots,
// which forward to it; or in the overlay (also for an id with no run).
type where int8

const (
	inIndex where = iota
	forwarded
	inOverlay
)

// lists calls f with every live id that has children, in id order, and
// its list: a walk of the index's bits beside the overlay, which skips
// the ids that have no run.
func (t *Tree) lists(f func(v int, kids []int)) {
	if t.Children != nil {
		for v, l := range t.Children {
			if len(l) > 0 {
				f(v, l)
			}
		}
		return
	}
	over := t.over
	emit := func(v int, s span) {
		if s.n > 0 && t.Alive(v) {
			f(v, t.run(s))
		}
	}
	for w := 0; w < int(t.base[1]); w += 2 {
		for b := t.base[w]; b != 0; b &= b - 1 {
			v := w<<4 | bits.TrailingZeros32(b)
			for len(over) > 0 && int(over[0].id) < v {
				emit(int(over[0].id), over[0].s)
				over = over[1:]
			}
			if len(over) > 0 && int(over[0].id) == v {
				emit(v, over[0].s)
				over = over[1:]
			} else {
				r, _ := packedRun(&t.kids, t.base.span(v), t.slack)
				emit(v, r)
			}
		}
	}
	for _, p := range over {
		emit(int(p.id), p.s)
	}
}

// packedRun returns the run in arena a that the index gives as b: in a
// slack arena, without its free slots, or where the owner moved it. A
// moved run's packed slots hold -2 less its offset, then its length.
func packedRun(a *cow.Arena[int], b span, slack bool) (span, where) {
	if b.n == 0 {
		return b, inOverlay
	}
	if slack {
		run := a.From(int(b.off))
		if run[0] < -1 {
			return span{int32(-2 - run[0]), int32(run[1])}, forwarded
		}
		for b.n > 0 && run[b.n-1] < 0 {
			b.n--
		}
	}
	return b, inIndex
}

// find returns where id v's entry is, or would go, in the overlay. An
// id outside the overlay's range, as most are, costs no search; inside,
// the first probe is where v would lie were the ids spread evenly, as
// an owner's are when it adds whole fragments, and one more probe beside
// it most often settles it.
func (t *Tree) find(v int) (int, bool) {
	over := t.over
	lo, hi := 0, len(over)
	if hi == 0 || v < int(over[0].id) {
		return 0, false
	}
	first, last := int(over[0].id), int(over[hi-1].id)
	if v > last {
		return hi, false
	}
	if first == last {
		return 0, true
	}
	g := int(uint64(v-first) * uint64(hi-1) / uint64(last-first))
	switch id := int(over[g].id); {
	case id == v:
		return g, true
	case id < v:
		lo = g + 1 // over[hi-1].id >= v, so lo < hi
		if int(over[lo].id) >= v {
			return lo, int(over[lo].id) == v
		}
	default:
		hi = g // g > 0, as over[0].id <= v
		if id := int(over[g-1].id); id < v {
			return g, false
		} else if id == v {
			return g - 1, true
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(over[m].id) < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(over) && int(over[lo].id) == v
}

// setSpan makes s v's run, its overlay entry, and settles.
func (t *Tree) setSpan(v int, s span) {
	if i, ok := t.find(v); ok {
		t.over[i].s = s
	} else {
		t.over = slices.Insert(t.over, i, patch{int32(v), s})
	}
	t.settle()
}

// settle folds when the overlay has grown past √Cap() entries since a
// clone was taken, the arena holds more dead slots than live ones (the
// spare ones aside, so that the room a moved run grows into is not
// thrown away), or it has passed maxOffset.
func (t *Tree) settle() {
	if n := len(t.over); !t.own && n*n > t.Cap() || t.deadSlots()-t.spare > t.liveSlots() || t.kids.End() > maxOffset {
		t.fold()
	}
}

// fold repacks t's live lists into an arena and index of its own, in
// which a dead id's run is empty, and empties the overlay; a tree that
// owns every run packs a free slot after each. At √Cap() entries a
// fold's 8 B per child and 4 B per parent are about what the clones
// since the last one copied of the overlay, and the arena holds at most
// about twice what its lists and their free slots do. An owner's folds
// stay amortised O(1) an edit: a run it moved keeps its room, and only
// the slots it left count as dead.
func (t *Tree) fold() {
	if invariants.Enabled && t.own {
		t.checkSpare()
	}
	t.kids, t.base = packed(t, t.own)
	t.slack, t.mark, t.over, t.spare = t.own, 0, t.over[:0], 0
	if t.own {
		t.spare = t.base.runs()
	}
}

// prepare readies t for a write: after a clone taken anywhere in the
// family, t owns no run it has and not its dead bits.
func (t *Tree) prepare() {
	if t.fork.Refresh() {
		t.mark, t.ownDead, t.own = t.kids.End(), false, false
	}
}

// liveSlots is how many ids the live lists hold: every live node but
// the root is in its parent's. The rest of the arena's slots are dead.
func (t *Tree) liveSlots() int { return max(t.live-1, 0) }
func (t *Tree) deadSlots() int { return t.kids.Used() - t.liveSlots() }

// free reports whether t may fill the slot after v's run s, recorded at
// w, in place: t owns every run, and the slot is one of the packed run's
// or, after a run t moved, holds the -1 filler.
func (t *Tree) free(v int, s span, w where) bool {
	end := int(s.off + s.n)
	switch {
	case !t.own:
		return false
	case w == inIndex:
		b := t.base.span(v)
		return end < int(b.off+b.n)
	case s.n == 0 || end >= t.kids.End():
		return false
	}
	rest := t.kids.From(int(s.off))
	return int(s.n) < len(rest) && rest[s.n] == -1
}

// room counts the free slots after v's run s, recorded at w, that t
// could fill in place while it owns every run: the packed run's, or the
// -1 fillers after a run t moved.
func (t *Tree) room(v int, s span, w where) int {
	if w == inIndex {
		b := t.base.span(v)
		return int(b.off + b.n - s.off - s.n)
	}
	if s.n == 0 {
		return 0
	}
	rest, n := t.kids.From(int(s.off)), int(s.n)
	for n < min(len(rest), t.kids.End()-int(s.off)) && rest[n] == -1 {
		n++
	}
	return n - int(s.n)
}

// insert puts id at position pos of v's run: in place if the slot after
// the run is free, or, on a tree that does not own every run, it is t's
// since the last fork and the arena's last (no run is empty, so it lies
// in the open chunk) with room after it; else in a copy at the arena's
// end, which has as many free slots again while t owns every run.
func (t *Tree) insert(v, pos, id int) {
	s, w := t.span(v)
	switch {
	case t.free(v, s, w):
		t.shift(s, pos, id)
		s.n++
		t.spare--
	case !t.own && s.n > 0 && int(s.off) >= t.mark && int(s.off+s.n) == t.kids.End() && t.kids.Extend(1):
		t.shift(s, pos, id)
		s.n++
	default:
		old := t.run(s)
		k := len(old) + 1
		if t.own {
			k = max(2*len(old), 2)
		}
		off, run := t.kids.Grow(k)
		copy(run, old[:pos])
		run[pos] = id
		copy(run[pos+1:], old[pos:])
		for i := len(old) + 1; i < k; i++ {
			run[i] = -1
		}
		s, t.spare = span{int32(off), s.n + 1}, t.spare+k-len(old)-1
	}
	t.record(v, s, w)
}

// shift writes id at position pos of run s in place, moving the ids from
// pos up into the slot after s.
func (t *Tree) shift(s span, pos, id int) {
	t.owned(s)
	run := t.run(span{s.off, s.n + 1})
	copy(run[pos+1:], run[pos:])
	run[pos] = id
}

// owned checks, under the invariants build, that t may write run s in
// place: no clone shares it.
func (t *Tree) owned(s span) {
	if invariants.Enabled && int(s.off) < t.mark {
		invariants.Violated("scheme", "a run at offset %d, below the mark %d that a clone shares, written in place", s.off, t.mark)
	}
}

// cut removes the i-th id of v's run: in place, the -1 filler taking the
// slot it frees, if t appended the run since the last fork or owns every
// run; else in a copy at the arena's end. An owner's moved run that
// empties goes dead, room and all, and keeps the id in its first slot,
// so that the run before it never takes that slot for a free one.
func (t *Tree) cut(v, i int) {
	s, w := t.span(v)
	old := t.run(s)
	switch {
	case t.own && s.n == 1 && w != inIndex:
		t.spare -= t.room(v, s, w)
		s.n--
	case int(s.off) >= t.mark:
		t.owned(s)
		copy(old[i:], old[i+1:])
		old[len(old)-1] = -1
		s.n--
		if t.own {
			t.spare++
		}
	case s.n == 1:
		s = span{}
	default:
		off, run := t.kids.Grow(len(old) - 1)
		copy(run, old[:i])
		copy(run[i:], old[i+1:])
		s = span{int32(off), s.n - 1}
	}
	t.record(v, s, w)
}

// record makes s v's run after an edit of the run it had at w. A tree
// that owns every run records a packed id's run in its packed slots: the
// index still finds it where it was packed, or its first two slots
// forward to where it moved. Any other run, and every run of a tree
// that does not, goes to the overlay.
func (t *Tree) record(v int, s span, w where) {
	if !t.own || w == inOverlay {
		if s.n == 0 {
			s = span{}
		}
		t.setSpan(v, s)
		return
	}
	if b := t.base.span(v); s.off != b.off {
		t.owned(b)
		run := t.kids.From(int(b.off))
		run[0], run[1] = -2-int(s.off), int(s.n)
	}
	t.settle()
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
		t.insert(parent, pos, id)
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
		if t.own {
			s, w := t.span(u)
			t.spare -= t.room(u, s, w)
		}
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
			t.cut(p, i)
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

// An indexer lays out the index of ids ids, parents of which have a
// run, one id with a run at a time, in id order.
type indexer struct {
	x     index
	words int
	at    int // where the next offset goes
	next  int // the first word whose header is unset
}

func newIndexer(ids, parents int) indexer {
	words := ids>>5 + 1
	return indexer{x: make(index, 2*words+parents+1), words: words, at: 2 * words}
}

// add records that v's run begins at offset off.
func (b *indexer) add(v, off int) {
	for ; b.next <= v>>5; b.next++ {
		b.x[2*b.next+1] = uint32(b.at)
	}
	b.x[v>>5<<1] |= 1 << (v & 31)
	b.x[b.at], b.at = uint32(off), b.at+1
}

// end returns the index of an arena whose last run ends at off.
func (b *indexer) end(off int) index {
	for ; b.next < b.words; b.next++ {
		b.x[2*b.next+1] = uint32(b.at)
	}
	b.x[b.at] = uint32(off)
	return b.x
}

// packed returns a fresh arena of src's live lists, in id order, and
// its index; with slack, a -1 filler follows each run in a slot of its
// own.
func packed(src *Tree, slack bool) (cow.Arena[int], index) {
	free, parents, n := 0, 0, 0
	if slack {
		free = 1
	}
	src.lists(func(_ int, kids []int) { parents, n = parents+1, n+len(kids)+free })
	b, first, off := newIndexer(src.Cap(), parents), make([]int, n), 0
	src.lists(func(v int, kids []int) {
		b.add(v, off)
		off += copy(first[off:], kids)
		if slack {
			first[off], off = -1, off+1
		}
	})
	x := b.end(off)
	a := cow.NewArena[int](strideShift, minChunk)
	a.Start(first, len(first))
	if invariants.Enabled {
		if n -= free * parents; n != src.liveSlots() {
			invariants.Violated("scheme", "packed %d slots, want the %d live ones", n, src.liveSlots())
		}
		checkRuns(a, x, slack, src)
	}
	return a, x
}

// checkSpare holds an owner's count of spare slots to its live runs'.
func (t *Tree) checkSpare() {
	n := 0
	for v := 0; v < t.Cap(); v++ {
		if t.Alive(v) {
			s, w := t.span(v)
			n += t.room(v, s, w)
		}
	}
	if n != t.spare {
		invariants.Violated("scheme", "the owner counts %d spare slots, its live runs have %d", t.spare, n)
	}
}

// checkRuns holds every run of arena a under index x, read back without
// its free slots, to src's live lists: an id src lists no run for must
// read none.
func checkRuns(a cow.Arena[int], x index, slack bool, src *Tree) {
	next := 0
	check := func(v int, want []int) {
		var got []int
		if s, _ := packedRun(&a, x.span(v), slack); s.n > 0 {
			got = a.From(int(s.off))[:s.n]
		}
		if !slices.Equal(got, want) {
			invariants.Violated("scheme", "id %d reads back %v, packed from %v", v, got, want)
		}
	}
	src.lists(func(v int, kids []int) {
		for ; next < v; next++ {
			check(next, nil)
		}
		check(v, kids)
		next = v + 1
	})
	for ; next < src.Cap(); next++ {
		check(next, nil)
	}
}
