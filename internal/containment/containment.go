// Package containment implements the containment (interval) labeling
// scheme of Zhang et al. (SIGMOD 2001): every node carries
// "start, end, level", u is an ancestor of v iff u.start < v.start and
// v.end < u.end, and u is v's parent iff additionally their levels
// differ by one. The endpooint encoding is pluggable (package keys),
// which is how the CDBS paper derives V-Binary-, F-Binary-,
// Float-point-, V-CDBS-, F-CDBS- and QED-Containment from one scheme.
//
// Insertion places the new node's (start, end) pair into the value gap
// at the insertion point. Dynamic codecs (CDBS, QED) always succeed
// without touching existing labels (Corollary 3.3 of the paper);
// static codecs report keys.ErrNoRoom, upon which the whole document
// is re-encoded and the number of nodes whose labels changed is
// reported — the quantity in Table 4.
package containment

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cow"
	"repro/internal/keys"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// levelBits is the per-node storage charged for the level field; one
// byte, identical across codecs.
const levelBits = 8

// Labeling is a containment-labeled document. Its labels are one
// column of keys.Refs, ends[2v] node v's start key and ends[2v+1] its
// end key, and one keys.Arena behind them: a CDBS or QED key of at
// most 31 bits is its Ref, and a longer one, or any binary or float
// key, is stored once in the arena at its own size. A dynamic codec writes both once, so
// the arena and the column keep their chunks across CloneLabeling
// (package cow's write-once rule); a static codec's re-encoding
// replaces both.
type Labeling struct {
	tree *scheme.Tree
	keys keys.Arena
	ends cow.Column[keys.Ref]

	// limit and longest are the LimitLabel state, in bytes of ordered
	// label; both stay zero under a codec without that form. A label
	// is no longer than its arena, hence the width.
	limit, longest uint32
}

var _ scheme.Labeling = (*Labeling)(nil)

// Build returns a scheme.Builder for the given endpoint codec.
func Build(codec keys.Codec) scheme.Builder {
	return func(doc *xmltree.Document) (scheme.Labeling, error) {
		return New(codec, doc)
	}
}

// New labels doc with the given endpoint codec.
func New(codec keys.Codec, doc *xmltree.Document) (*Labeling, error) {
	arena, err := keys.NewArena(codec)
	if err != nil {
		return nil, err
	}
	l := &Labeling{tree: scheme.NewTree(doc), keys: arena}
	if _, err := l.reassign(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Labeling) start(v int) keys.Ref { return l.ends.At(2 * v) }
func (l *Labeling) end(v int) keys.Ref   { return l.ends.At(2*v + 1) }

// reassign (re)encodes every node's start and end keys in document
// order into a fresh arena, sized once for all of them, and returns the
// count of nodes whose keys changed (zero on the first call, when there
// are no old keys).
func (l *Labeling) reassign() (changed int, err error) {
	if !l.tree.Alive(0) {
		return 0, errors.New("containment: empty tree")
	}
	arena, err := keys.NewArena(l.keys.Codec())
	if err != nil {
		return 0, err
	}
	n := &Labeling{tree: l.tree, keys: arena, ends: cow.NewColumn(make([]keys.Ref, 2*l.tree.Cap()))}
	// The ids are document order as built; later ones are appended.
	w := &walk{l: n, open: -1}
	if l.ends.Len() > 0 {
		w.order = append(l.tree.PreOrder(), l.tree.Cap())
	}
	if err := n.keys.Initial(2*l.tree.Len(), w); err != nil {
		return 0, err
	}
	same := func(i int) bool { return keys.Same(&l.keys, l.ends.At(i), &n.keys, n.ends.At(i)) }
	for v := 0; 2*v < l.ends.Len(); v++ {
		if l.tree.Alive(v) && !(same(2*v) && same(2*v+1)) {
			changed++
		}
	}
	l.keys, l.ends, l.longest = n.keys, n.ends, n.longest
	return changed, nil
}

// walk is a keys.Sink over the nodes order lists in preorder (then Cap),
// or the ids from next on. Their keys come in document order, so the
// tree's parents say whether the next is the start of the next node or
// the end of the node the walk is in, open, and where in l.ends it goes.
type walk struct {
	l          *Labeling
	order      []int
	next, open int
}

func (w *walk) Bounded() bool { return false }

func (w *walk) Put(r keys.Ref) {
	l, u, i := w.l, w.next, 2*w.open+1
	if w.order != nil {
		u = w.order[w.next]
	}
	if u < l.tree.Cap() && l.tree.Parent(u) == w.open {
		i, w.open, w.next = 2*u, u, w.next+1
	} else {
		w.open = l.tree.Parent(w.open)
	}
	if l.ends.Set(i, r); i&1 == 0 {
		l.longest = max(l.longest, labelLen(&l.keys, r))
	}
}

// Name returns e.g. "V-CDBS-Containment".
func (l *Labeling) Name() string { return l.keys.Codec().Name() + "-Containment" }

// Len returns the node count.
func (l *Labeling) Len() int { return l.tree.Len() }

// Tree exposes the structural mirror.
func (l *Labeling) Tree() *scheme.Tree { return l.tree }

// Level returns the stored level of v (root = 1).
func (l *Labeling) Level(v int) int { return l.tree.Depth(v) }

// AppendOrderedLabel emits, when the endpoint codec implements
// keys.OrderedBytes (CDBS, QED), the node's start key, whose order
// across live nodes is exactly document order and which is unique per
// node (every start position is distinct). Codecs whose byte form does
// not sort like their numeric order (binary, float) make this return
// scheme.ErrNoOrderedLabels: slice backend only.
func (l *Labeling) AppendOrderedLabel(dst []byte, v int) ([]byte, error) {
	if !l.tree.Alive(v) {
		return nil, fmt.Errorf("%w: %d", scheme.ErrBadNode, v)
	}
	dst, ok := l.keys.AppendOrdered(dst, l.start(v))
	if !ok {
		return nil, fmt.Errorf("%w: containment codec %s", scheme.ErrNoOrderedLabels, l.keys.Codec().Name())
	}
	return dst, nil
}

// labelLen returns the length of the ordered label a node with start
// key r has: zero under a codec without one.
func labelLen(a *keys.Arena, r keys.Ref) uint32 { return uint32(a.OrderedLen(r)) }

// LimitLabel sets the longest ordered label an insert may assign.
func (l *Labeling) LimitLabel(n int) { l.limit = uint32(min(max(n, 0), math.MaxUint32)) }

// LongestLabel returns the longest ordered label assigned so far.
func (l *Labeling) LongestLabel() int { return int(l.longest) }

// keyError wraps the arena's refusal of an insert. One that would give
// a node an ordered label over the limit (keys.ErrTooLong) is refused
// before it has appended a key or changed anything else.
func keyError(err error) error {
	if errors.Is(err, keys.ErrTooLong) {
		return fmt.Errorf("containment: %w: %v", scheme.ErrLabelTooLong, err)
	}
	return fmt.Errorf("containment: %w", err)
}

// StartKey returns v's start key as the codec's Key-level methods
// would hold it (for tests and harnesses).
func (l *Labeling) StartKey(v int) keys.Key { return l.keys.Key(l.start(v)) }

// EndKey returns v's end key.
func (l *Labeling) EndKey(v int) keys.Key { return l.keys.Key(l.end(v)) }

// IsAncestor implements interval containment on the labels.
func (l *Labeling) IsAncestor(u, v int) bool {
	return l.keys.Compare(l.start(u), l.start(v)) < 0 &&
		l.keys.Compare(l.end(v), l.end(u)) < 0
}

// IsParent is containment plus a level difference of one.
func (l *Labeling) IsParent(u, v int) bool {
	return l.Level(v)-l.Level(u) == 1 && l.IsAncestor(u, v)
}

// IsSibling reports distinct nodes sharing a parent. Interval labels
// alone cannot answer this without a scan, so like practical
// containment indexes the labeling consults its structural parent
// pointers after an equal-level label check.
func (l *Labeling) IsSibling(u, v int) bool {
	return u != v && l.Level(u) == l.Level(v) && l.tree.Parent(u) == l.tree.Parent(v)
}

// Before orders nodes by their start keys (document order).
func (l *Labeling) Before(u, v int) bool {
	return l.keys.Compare(l.start(u), l.start(v)) < 0
}

// TotalLabelBits charges each live node its two endpoints (with the
// codec's own overhead accounting) plus a one-byte level.
func (l *Labeling) TotalLabelBits() int64 {
	live := make([]keys.Ref, 0, 2*l.tree.Len())
	for v := 0; 2*v < l.ends.Len(); v++ {
		if l.tree.Alive(v) {
			live = append(live, l.start(v), l.end(v))
		}
	}
	return int64(l.keys.TotalBits(live)) + int64(levelBits*l.tree.Len())
}

// LabelBytes returns the arena and the column of Refs into it, at
// their capacities.
func (l *Labeling) LabelBytes() int64 {
	return int64(l.keys.Cap()) + l.ends.Bytes()
}

// EscapedKeys counts the live nodes' keys in the arena, not their Ref.
func (l *Labeling) EscapedKeys() (n int) {
	for i := range l.ends.Len() {
		if l.tree.Alive(i/2) && !l.ends.At(i).Word() {
			n++
		}
	}
	return n
}

// DeleteSubtree removes node v and its descendants. The remaining
// labels keep their relative order (Section 5.2.1), so nothing is
// re-labeled.
func (l *Labeling) DeleteSubtree(v int) (int, error) {
	return l.tree.RemoveSubtree(v)
}

// gapBounds returns the value-sequence neighbors of the gap where the
// pos-th child of parent would be inserted: the key immediately to the
// left and immediately to the right.
func (l *Labeling) gapBounds(parent, pos int) (left, right keys.Ref) {
	kids := l.tree.Kids(parent)
	if pos > 0 {
		left = l.end(kids[pos-1])
	} else {
		left = l.start(parent)
	}
	if pos < len(kids) {
		right = l.start(kids[pos])
	} else {
		right = l.end(parent)
	}
	return left, right
}

// InsertChildAt inserts a fresh leaf element as the pos-th child of
// parent. Both its start and its end key must fit in one gap — the
// case Corollary 3.3 covers for CDBS — and are asked for together.
func (l *Labeling) InsertChildAt(parent, pos int) (int, int, error) {
	if err := l.tree.ValidateInsert(parent, pos); err != nil {
		return 0, 0, err
	}
	left, right := l.gapBounds(parent, pos)
	m1, m2, err := l.keys.TwoBetween(left, right, int(l.limit))
	if err != nil {
		if !errors.Is(err, keys.ErrNoRoom) {
			return 0, 0, keyError(err)
		}
		// Static codec out of room: grow the tree first, then
		// re-encode everything and count the damage.
		id := l.tree.AddChild(parent, pos)
		changed, err := l.reassign()
		if err != nil {
			return 0, 0, err
		}
		return id, changed, nil
	}
	id := l.tree.AddChild(parent, pos)
	l.ends.Grow(2)
	l.ends.Set(2*id, m1)
	l.ends.Set(2*id+1, m2)
	l.longest = max(l.longest, labelLen(&l.keys, m1))
	return id, 0, nil
}

// MarshalLabel serialises node v's label in its storage form: the
// start and end keys in the codec's own encoding (keys.Arena.AppendKey)
// followed by a one-byte level.
func (l *Labeling) MarshalLabel(v int) ([]byte, error) {
	if !l.tree.Alive(v) {
		return nil, fmt.Errorf("%w: %d", scheme.ErrBadNode, v)
	}
	out := l.keys.AppendKey(nil, l.start(v))
	out = l.keys.AppendKey(out, l.end(v))
	return append(out, byte(l.Level(v))), nil
}

// InsertSubtree inserts a fragment shaped like the given element tree
// as the pos-th child of parent. All 2×size endpoint keys are placed
// into the single gap with the codec's even subdivision, so dynamic
// codecs never touch an existing label no matter how large the
// fragment (the bulk generalisation of Corollary 3.3).
func (l *Labeling) InsertSubtree(parent, pos int, shape *xmltree.Node) ([]int, int, error) {
	ids, changed, err := l.InsertSubtrees(parent, pos, []*xmltree.Node{shape})
	if err != nil {
		return nil, 0, err
	}
	return ids[0], changed, nil
}

// InsertSubtrees inserts fragments shaped like the given element
// trees as consecutive children of parent starting at position pos,
// placing all 2×total endpoint keys into the one gap with a single
// even subdivision — the batch generalisation of InsertSubtree, where
// n sequential inserts would subdivide the same gap n times and grow
// the later fragments' keys.
func (l *Labeling) InsertSubtrees(parent, pos int, shapes []*xmltree.Node) ([][]int, int, error) {
	if len(shapes) == 0 {
		return nil, 0, nil
	}
	total := 0
	for _, shape := range shapes {
		if shape == nil {
			return nil, 0, errors.New("containment: nil shape")
		}
		total += shape.SubtreeSize()
	}
	if err := l.tree.ValidateInsert(parent, pos); err != nil {
		return nil, 0, err
	}
	left, right := l.gapBounds(parent, pos)
	g := grafts.Get().(*graft)
	*g = graft{walk: walk{l: l, open: parent}, pos: pos, total: total, shapes: shapes}
	defer func() { *g = graft{}; grafts.Put(g) }()
	err := l.keys.Fill(left, right, 2*total, int(l.limit), g)
	if err != nil && !errors.Is(err, keys.ErrNoRoom) {
		return nil, 0, keyError(err)
	}
	changed := 0
	if err != nil {
		// Static codec out of room: grow the tree, re-encode everything.
		g.mirror()
		if changed, err = l.reassign(); err != nil {
			return nil, 0, err
		}
	}
	// The fragments' ids are the last total, in preorder.
	all, ids := make([]int, total), make([][]int, len(shapes))
	for i := range all {
		all[i] = l.tree.Cap() - total + i
	}
	for k, shape := range shapes {
		n := shape.SubtreeSize()
		ids[k], all = all[:n:n], all[n:]
	}
	return ids, changed, nil
}

// graft is InsertSubtrees' keys.Sink: its first Put, when the run can
// no longer fail, mirrors the fragments into the tree, and walks them.
type graft struct {
	walk
	pos, total int
	shapes     []*xmltree.Node
	starts     []bool // the limit's, if it asks
}

// grafts recycles the sinks, which keys.Arena.Fill takes as an
// interface and so would move to the heap on every call. A pooled
// graft is zero: it holds no labeling and no fragment.
var grafts = sync.Pool{New: func() any { return new(graft) }}

// Bounded picks the start keys, which are the labels. The tree is not
// grown yet, so the first call lists which keys are starts.
func (g *graft) Bounded() bool {
	if g.starts == nil {
		for _, n := range g.shapes {
			g.starts = starts(g.starts, n)
		}
	}
	b := g.starts[0]
	g.starts = g.starts[1:]
	return b
}

// starts appends, in document order, true for the start key and false
// for the end key of each node of n's fragment.
func starts(dst []bool, n *xmltree.Node) []bool {
	dst = append(dst, true)
	for _, c := range n.Children {
		dst = starts(dst, c)
	}
	return append(dst, false)
}

func (g *graft) Put(r keys.Ref) {
	if g.next == 0 {
		g.mirror()
		g.l.ends.Grow(2 * g.total)
	}
	g.walk.Put(r)
}

// mirror adds the fragments to the tree as consecutive children of
// open from pos: their ids are next on.
func (g *graft) mirror() {
	g.next = g.l.tree.Cap()
	for k, shape := range g.shapes {
		g.l.addShape(g.open, g.pos+k, shape)
	}
}

// CloneLabeling copies no label byte: a key is written once — or,
// under a static codec, replaced together with the whole arena — so
// the clone shares the arena and the column of Refs.
func (l *Labeling) CloneLabeling() scheme.Labeling {
	cl := *l
	cl.tree = l.tree.Clone()
	return &cl
}

// addShape adds n's fragment as the at-th child of p.
func (l *Labeling) addShape(p, at int, n *xmltree.Node) {
	id := l.tree.AddChild(p, at)
	for i, c := range n.Children {
		l.addShape(id, i, c)
	}
}
