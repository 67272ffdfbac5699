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
	"bytes"
	"errors"
	"fmt"
	"math"

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
	ks, err := arena.Encode(2 * l.tree.Len())
	if err != nil {
		return 0, err
	}
	ends := make([]keys.Ref, 2*l.tree.Cap())
	longest := uint32(0)
	var walk func(v int)
	walk = func(v int) {
		ends[2*v], ks = ks[0], ks[1:]
		longest = max(longest, labelLen(&arena, ends[2*v]))
		for _, c := range l.tree.Kids(v) {
			walk(c)
		}
		ends[2*v+1], ks = ks[0], ks[1:]
	}
	walk(0) // the root: ids are document order at build time
	// A key's stored form is canonical, so equal bytes are equal keys.
	same := func(i int) bool { return bytes.Equal(l.keys.Stored(l.ends.At(i)), arena.Stored(ends[i])) }
	for v := 0; 2*v < l.ends.Len(); v++ {
		if l.tree.Alive(v) && !(same(2*v) && same(2*v+1)) {
			changed++
		}
	}
	l.keys, l.ends = arena, cow.NewColumn(ends)
	l.longest = longest
	return changed, nil
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
	// The fresh keys go to the fragments in document order: start at
	// pre-visit, end at post-visit, fragments consecutive. starts and
	// ends list where in that run each fragment node's two stand, nodes
	// in preorder, the order addShape hands out ids in. The limit is for
	// the start keys, which are the labels.
	starts, ends := make([]uint32, 0, total), make([]uint32, total)
	next := uint32(0)
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		i := len(starts)
		starts = append(starts, next)
		next++
		for _, c := range n.Children {
			walk(c)
		}
		ends[i] = next
		next++
	}
	for _, shape := range shapes {
		walk(shape)
	}
	ks, err := l.keys.NBetween(left, right, 2*total, int(l.limit), starts)
	if err != nil && !errors.Is(err, keys.ErrNoRoom) {
		return nil, 0, keyError(err)
	}
	ids := make([][]int, len(shapes))
	for k, shape := range shapes {
		ids[k] = l.addShape(parent, pos+k, shape)
	}
	if err != nil {
		// Static codec out of room: the tree has grown, now re-encode
		// everything.
		changed, err := l.reassign()
		if err != nil {
			return nil, 0, err
		}
		return ids, changed, nil
	}
	l.ends.Grow(2 * total)
	for k, i := 0, 0; k < len(ids); k++ {
		for _, id := range ids[k] {
			l.ends.Set(2*id, ks[starts[i]])
			l.ends.Set(2*id+1, ks[ends[i]])
			l.longest = max(l.longest, labelLen(&l.keys, ks[starts[i]]))
			i++
		}
	}
	return ids, 0, nil
}

// CloneLabeling copies no label byte: a key is written once — or,
// under a static codec, replaced together with the whole arena — so
// the clone shares the arena and the column of Refs.
func (l *Labeling) CloneLabeling() scheme.Labeling {
	cl := *l
	cl.tree = l.tree.Clone()
	return &cl
}

// addShape mirrors the fragment into the structural tree, returning
// the fresh ids in preorder.
func (l *Labeling) addShape(parent, pos int, shape *xmltree.Node) []int {
	var ids []int
	var add func(p, at int, n *xmltree.Node)
	add = func(p, at int, n *xmltree.Node) {
		id := l.tree.AddChild(p, at)
		ids = append(ids, id)
		for i, c := range n.Children {
			add(id, i, c)
		}
	}
	add(parent, pos, shape)
	return ids
}
