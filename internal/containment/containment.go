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

	"repro/internal/cow"
	"repro/internal/keys"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// levelBits is the per-node storage charged for the level field; one
// byte, identical across codecs.
const levelBits = 8

// Labeling is a containment-labeled document. A dynamic codec writes
// a node's start and end keys once, so the two columns keep their
// backing arrays across CloneLabeling (cow.Append); a static codec's
// re-encoding replaces both arrays.
type Labeling struct {
	codec keys.Codec
	tree  *scheme.Tree
	start []keys.Key
	end   []keys.Key

	startMark, endMark *cow.Mark
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
	tree := scheme.NewTree(doc)
	l := &Labeling{codec: codec, tree: tree}
	if err := l.assignAll(); err != nil {
		return nil, err
	}
	return l, nil
}

// assignAll (re)encodes every node's start and end keys in document
// order and returns the count of nodes whose keys changed (zero on the
// first call, when the old keys are nil).
func (l *Labeling) assignAll() error {
	_, err := l.reassign()
	return err
}

func (l *Labeling) reassign() (changed int, err error) {
	ks, err := l.codec.Encode(2 * l.tree.Len())
	if err != nil {
		return 0, err
	}
	n := l.tree.Cap()
	newStart := make([]keys.Key, n)
	newEnd := make([]keys.Key, n)
	pos := 0
	var walk func(v int)
	walk = func(v int) {
		newStart[v] = ks[pos]
		pos++
		for _, c := range l.tree.Children[v] {
			walk(c)
		}
		newEnd[v] = ks[pos]
		pos++
	}
	order := l.tree.PreOrder()
	if len(order) == 0 {
		return 0, errors.New("containment: empty tree")
	}
	walk(order[0])
	for v := 0; v < n; v++ {
		if !l.tree.Alive(v) {
			continue
		}
		if l.start != nil && v < len(l.start) && l.start[v] != nil {
			if l.codec.Compare(l.start[v], newStart[v]) != 0 || l.codec.Compare(l.end[v], newEnd[v]) != 0 {
				changed++
			}
		}
	}
	l.start, l.end = newStart, newEnd
	l.startMark, l.endMark = cow.NewMark(n), cow.NewMark(n)
	return changed, nil
}

// Name returns e.g. "V-CDBS-Containment".
func (l *Labeling) Name() string { return l.codec.Name() + "-Containment" }

// Len returns the node count.
func (l *Labeling) Len() int { return l.tree.Len() }

// Tree exposes the structural mirror.
func (l *Labeling) Tree() *scheme.Tree { return l.tree }

// Level returns the stored level of v (root = 1).
func (l *Labeling) Level(v int) int { return l.tree.Depths[v] }

// AppendOrderedLabel implements scheme.OrderedLabeler when the
// endpoint codec implements keys.OrderedBytes (CDBS, QED): it emits
// the node's start key, whose order across live nodes is exactly
// document order and which is unique per node (every start position
// is distinct). Codecs whose byte form does not sort like their
// numeric order (binary, float) make this return an error, which the
// storage layer maps to "slice backend only".
func (l *Labeling) AppendOrderedLabel(dst []byte, v int) ([]byte, error) {
	ob, ok := l.codec.(keys.OrderedBytes)
	if !ok {
		return nil, fmt.Errorf("%w: containment codec %s", scheme.ErrNoOrderedLabels, l.codec.Name())
	}
	if !l.tree.Alive(v) {
		return nil, fmt.Errorf("%w: %d", scheme.ErrBadNode, v)
	}
	return ob.AppendOrdered(dst, l.start[v])
}

// StartKey returns v's start key (for tests and harnesses).
func (l *Labeling) StartKey(v int) keys.Key { return l.start[v] }

// EndKey returns v's end key.
func (l *Labeling) EndKey(v int) keys.Key { return l.end[v] }

// IsAncestor implements interval containment on the labels.
func (l *Labeling) IsAncestor(u, v int) bool {
	return l.codec.Compare(l.start[u], l.start[v]) < 0 &&
		l.codec.Compare(l.end[v], l.end[u]) < 0
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
	return u != v && l.Level(u) == l.Level(v) && l.tree.Parents[u] == l.tree.Parents[v]
}

// Before orders nodes by their start keys (document order).
func (l *Labeling) Before(u, v int) bool {
	return l.codec.Compare(l.start[u], l.start[v]) < 0
}

// TotalLabelBits charges each live node its two endpoints (with the
// codec's own overhead accounting) plus a one-byte level.
func (l *Labeling) TotalLabelBits() int64 {
	all := make([]keys.Key, 0, 2*l.tree.Len())
	for v := range l.start {
		if l.tree.Alive(v) {
			all = append(all, l.start[v], l.end[v])
		}
	}
	return int64(l.codec.TotalBits(all)) + int64(levelBits*l.tree.Len())
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
func (l *Labeling) gapBounds(parent, pos int) (left, right keys.Key) {
	kids := l.tree.Children[parent]
	if pos > 0 {
		prev := kids[pos-1]
		left = l.end[prev]
	} else {
		left = l.start[parent]
	}
	if pos < len(kids) {
		right = l.start[kids[pos]]
	} else {
		right = l.end[parent]
	}
	return left, right
}

// InsertChildAt inserts a fresh leaf element as the pos-th child of
// parent. Both its start and its end key must fit in one gap — the
// case Corollary 3.3 covers for CDBS.
func (l *Labeling) InsertChildAt(parent, pos int) (int, int, error) {
	if err := l.tree.ValidateInsert(parent, pos); err != nil {
		return 0, 0, err
	}
	left, right := l.gapBounds(parent, pos)
	m1, err := l.codec.Between(left, right)
	var m2 keys.Key
	if err == nil {
		m2, err = l.codec.Between(m1, right)
	}
	if err != nil {
		if !errors.Is(err, keys.ErrNoRoom) {
			return 0, 0, fmt.Errorf("containment: %w", err)
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
	l.start = cow.Append(&l.startMark, l.start, m1)
	l.end = cow.Append(&l.endMark, l.end, m2)
	return id, 0, nil
}

// InsertSiblingBefore inserts a fresh element immediately before v.
func (l *Labeling) InsertSiblingBefore(v int) (int, int, error) {
	parent, pos, err := l.tree.SiblingPosition(v)
	if err != nil {
		return 0, 0, err
	}
	return l.InsertChildAt(parent, pos)
}

// MarshalLabel serialises node v's label in its storage form: the
// start and end keys in the codec's own encoding followed by a
// one-byte level. It implements scheme.LabelMarshaler when the codec
// supports key marshaling (all built-in codecs do).
func (l *Labeling) MarshalLabel(v int) ([]byte, error) {
	if !l.tree.Alive(v) {
		return nil, fmt.Errorf("%w: %d", scheme.ErrBadNode, v)
	}
	m, ok := l.codec.(keys.Marshaler)
	if !ok {
		return nil, fmt.Errorf("containment: codec %s cannot marshal keys", l.codec.Name())
	}
	out, err := m.AppendKey(nil, l.start[v])
	if err != nil {
		return nil, err
	}
	out, err = m.AppendKey(out, l.end[v])
	if err != nil {
		return nil, err
	}
	return append(out, byte(l.Level(v))), nil
}

// InsertSubtree inserts a fragment shaped like the given element tree
// as the pos-th child of parent. All 2×size endpoint keys are placed
// into the single gap with the codec's even subdivision, so dynamic
// codecs never touch an existing label no matter how large the
// fragment (the bulk generalisation of Corollary 3.3).
func (l *Labeling) InsertSubtree(parent, pos int, shape *xmltree.Node) ([]int, int, error) {
	if shape == nil {
		return nil, 0, errors.New("containment: nil shape")
	}
	if err := l.tree.ValidateInsert(parent, pos); err != nil {
		return nil, 0, err
	}
	size := shape.SubtreeSize()
	left, right := l.gapBounds(parent, pos)
	ks, err := l.codec.NBetween(left, right, 2*size)
	if err != nil && !errors.Is(err, keys.ErrNoRoom) {
		return nil, 0, fmt.Errorf("containment: %w", err)
	}
	ids := l.addShape(parent, pos, shape)
	if err != nil {
		// Static codec out of room: re-encode everything.
		changed, rerr := l.reassign()
		if rerr != nil {
			return nil, 0, rerr
		}
		return ids, changed, nil
	}
	// Assign the fresh keys over the fragment in document order:
	// start at pre-visit, end at post-visit.
	l.start = cow.Grow(&l.startMark, l.start, size)
	l.end = cow.Grow(&l.endMark, l.end, size)
	cursor, idAt := 0, 0
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		id := ids[idAt]
		idAt++
		l.start[id] = ks[cursor]
		cursor++
		for _, c := range n.Children {
			walk(c)
		}
		l.end[id] = ks[cursor]
		cursor++
	}
	walk(shape)
	return ids, 0, nil
}

// InsertSubtrees inserts fragments shaped like the given element
// trees as consecutive children of parent starting at position pos,
// placing all 2×total endpoint keys into the one gap with a single
// even subdivision — the batch generalisation of InsertSubtree, where
// n sequential inserts would subdivide the same gap n times and grow
// the later fragments' keys. It implements scheme.BatchInserter.
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
	ks, err := l.codec.NBetween(left, right, 2*total)
	if err != nil && !errors.Is(err, keys.ErrNoRoom) {
		return nil, 0, fmt.Errorf("containment: %w", err)
	}
	ids := make([][]int, len(shapes))
	for k, shape := range shapes {
		ids[k] = l.addShape(parent, pos+k, shape)
	}
	if err != nil {
		// Static codec out of room: re-encode everything.
		changed, rerr := l.reassign()
		if rerr != nil {
			return nil, 0, rerr
		}
		return ids, changed, nil
	}
	// Assign the fresh keys across the fragments in document order:
	// start at pre-visit, end at post-visit, fragments consecutive.
	l.start = cow.Grow(&l.startMark, l.start, total)
	l.end = cow.Grow(&l.endMark, l.end, total)
	cursor := 0
	for k, shape := range shapes {
		idAt := 0
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			id := ids[k][idAt]
			idAt++
			l.start[id] = ks[cursor]
			cursor++
			for _, c := range n.Children {
				walk(c)
			}
			l.end[id] = ks[cursor]
			cursor++
		}
		walk(shape)
	}
	return ids, 0, nil
}

// CloneLabeling implements scheme.Cloner. Keys are immutable values
// (bit strings, QED codes, boxed numbers) and a node's keys are
// written once — or, under a static codec, replaced together with
// the whole column — so the clone shares both key columns.
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
