package prefix

import (
	"errors"
	"fmt"

	"repro/internal/cow"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Labeling is a prefix-labeled document: every node stores its full
// label, the sequence of self components from the root. The root's
// label is the empty sequence.
//
// A dynamic codec writes a node's label once, so the labels column
// keeps its chunks across CloneLabeling (cow.Column). A static codec's
// sibling renumbering rewrites existing slots and first makes the
// column private (ownLabels).
type Labeling struct {
	codec   ComponentCodec
	tree    *scheme.Tree
	labels  cow.Column[[]Component]
	private cow.Owner[struct{}] // whether labels' slots may be rewritten in place
}

var _ scheme.Labeling = (*Labeling)(nil)

// Build returns a scheme.Builder for the given component codec.
func Build(codec ComponentCodec) scheme.Builder {
	return func(doc *xmltree.Document) (scheme.Labeling, error) {
		return New(codec, doc)
	}
}

// New labels doc with the given component codec.
func New(codec ComponentCodec, doc *xmltree.Document) (*Labeling, error) {
	tree := scheme.NewTree(doc)
	l := &Labeling{
		codec:   codec,
		tree:    tree,
		labels:  cow.NewColumn(make([][]Component, tree.Len())),
		private: cow.NewOwner[struct{}](),
	}
	order := tree.PreOrder()
	if len(order) == 0 {
		return nil, errors.New("prefix: empty tree")
	}
	// The root keeps the empty label.
	if err := l.assignChildren(order[0]); err != nil {
		return nil, err
	}
	return l, nil
}

// assignChildren gives every child of v a fresh initial self label and
// recurses.
func (l *Labeling) assignChildren(v int) error {
	kids := l.tree.Children[v]
	if len(kids) == 0 {
		return nil
	}
	selfs, err := l.codec.Initial(len(kids))
	if err != nil {
		return err
	}
	for i, c := range kids {
		l.labels.Set(c, extend(l.labels.At(v), selfs[i]))
		if err := l.assignChildren(c); err != nil {
			return err
		}
	}
	return nil
}

// extend returns base ++ [self] in fresh storage.
func extend(base []Component, self Component) []Component {
	out := make([]Component, 0, len(base)+1)
	out = append(out, base...)
	return append(out, self)
}

// Name returns e.g. "QED-Prefix".
func (l *Labeling) Name() string { return l.codec.Name() }

// Len returns the node count.
func (l *Labeling) Len() int { return l.tree.Len() }

// Tree exposes the structural mirror.
func (l *Labeling) Tree() *scheme.Tree { return l.tree }

// Label returns v's full label (shared storage; do not mutate).
func (l *Labeling) Label(v int) []Component { return l.labels.At(v) }

// Level is the label length plus one (the root's empty label is level
// 1).
func (l *Labeling) Level(v int) int { return len(l.labels.At(v)) + 1 }

// compareLabels orders labels in document order: componentwise with a
// proper prefix (ancestor) first.
func (l *Labeling) compareLabels(a, b []Component) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := l.codec.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// IsAncestor reports whether u's label is a proper prefix of v's.
func (l *Labeling) IsAncestor(u, v int) bool {
	lu, lv := l.labels.At(u), l.labels.At(v)
	if len(lu) >= len(lv) {
		return false
	}
	for i := range lu {
		if l.codec.Compare(lu[i], lv[i]) != 0 {
			return false
		}
	}
	return true
}

// IsParent reports whether removing v's final component yields u's
// label.
func (l *Labeling) IsParent(u, v int) bool {
	return len(l.labels.At(v)) == len(l.labels.At(u))+1 && l.IsAncestor(u, v)
}

// IsSibling reports distinct labels of equal length sharing all but
// the last component.
func (l *Labeling) IsSibling(u, v int) bool {
	lu, lv := l.labels.At(u), l.labels.At(v)
	if len(lu) != len(lv) || len(lu) == 0 {
		return false
	}
	for i := 0; i < len(lu)-1; i++ {
		if l.codec.Compare(lu[i], lv[i]) != 0 {
			return false
		}
	}
	return l.codec.Compare(lu[len(lu)-1], lv[len(lv)-1]) != 0
}

// Before reports document order by label comparison.
func (l *Labeling) Before(u, v int) bool {
	return l.compareLabels(l.labels.At(u), l.labels.At(v)) < 0
}

// TotalLabelBits sums the component storage of every live label.
func (l *Labeling) TotalLabelBits() int64 {
	var total int64
	for v := 0; v < l.labels.Len(); v++ {
		if !l.tree.Alive(v) {
			continue
		}
		for _, c := range l.labels.At(v) {
			total += int64(l.codec.Bits(c))
		}
	}
	return total
}

// DeleteSubtree removes node v and its descendants without touching
// any remaining label (Section 5.2.1).
func (l *Labeling) DeleteSubtree(v int) (int, error) {
	return l.tree.RemoveSubtree(v)
}

// InsertChildAt inserts a fresh leaf element as the pos-th child of
// parent. Dynamic codecs never touch existing labels; static codecs
// re-label the following siblings and (because labels are prefixes)
// every node in their subtrees, whose count is returned.
func (l *Labeling) InsertChildAt(parent, pos int) (int, int, error) {
	if err := l.tree.ValidateInsert(parent, pos); err != nil {
		return 0, 0, err
	}
	kids := l.tree.Children[parent]
	var left, right Component
	if pos > 0 {
		left = l.selfOf(kids[pos-1])
	}
	if pos < len(kids) {
		right = l.selfOf(kids[pos])
	}
	self, err := l.codec.Between(left, right)
	if err == nil {
		id := l.tree.AddChild(parent, pos)
		l.labels.Append(extend(l.labels.At(parent), self))
		return id, 0, nil
	}
	if !errors.Is(err, ErrNoRoom) {
		return 0, 0, fmt.Errorf("prefix: %w", err)
	}
	// Static codec: renumber the parent's children and rebuild the
	// labels of every shifted subtree.
	id := l.tree.AddChild(parent, pos)
	l.ownLabels()
	l.labels.Append(nil)
	kids = l.tree.Children[parent]
	selfs, err := l.codec.Initial(len(kids))
	if err != nil {
		return 0, 0, err
	}
	relabeled := 0
	for i, c := range kids {
		newLabel := extend(l.labels.At(parent), selfs[i])
		if c == id {
			// The fresh node (a leaf) gets its first label; that is
			// not a re-label.
			l.labels.Set(c, newLabel)
			continue
		}
		if l.compareLabels(l.labels.At(c), newLabel) == 0 {
			continue
		}
		l.labels.Set(c, newLabel)
		relabeled++
		l.relabelSubtree(c, &relabeled)
	}
	return id, relabeled, nil
}

// ownLabels moves the labels column to an array no other labeling
// holds, unless it already is one, so that existing slots can be
// rewritten.
func (l *Labeling) ownLabels() {
	l.private.Refresh()
	if l.private.Has(struct{}{}) {
		return
	}
	l.labels = cow.NewColumn(l.labels.Flat())
	l.private.Add(struct{}{})
}

// relabelSubtree rebuilds the labels of v's descendants from v's
// (already updated) label, counting each change.
func (l *Labeling) relabelSubtree(v int, count *int) {
	for _, c := range l.tree.Children[v] {
		self := l.selfOf(c)
		l.labels.Set(c, extend(l.labels.At(v), self))
		*count++
		l.relabelSubtree(c, count)
	}
}

// selfOf returns v's final component.
func (l *Labeling) selfOf(v int) Component {
	lab := l.labels.At(v)
	return lab[len(lab)-1]
}

// MarshalLabel serialises node v's full label: its components
// concatenated in the codec's storage form.
func (l *Labeling) MarshalLabel(v int) ([]byte, error) {
	if !l.tree.Alive(v) {
		return nil, fmt.Errorf("%w: %d", scheme.ErrBadNode, v)
	}
	var out []byte
	var err error
	for _, c := range l.labels.At(v) {
		out, err = l.codec.AppendComponent(out, c)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AppendOrderedLabel fails: no component codec's storage form is an
// order-preserving one yet.
func (l *Labeling) AppendOrderedLabel([]byte, int) ([]byte, error) {
	return nil, fmt.Errorf("%w: %s", scheme.ErrNoOrderedLabels, l.codec.Name())
}

// LimitLabel is inert: there is no ordered label to limit.
func (l *Labeling) LimitLabel(int) {}

// LongestLabel returns 0: there is no ordered label.
func (l *Labeling) LongestLabel() int { return 0 }

// LabelBytes estimates the labels, each a slice of boxed components.
func (l *Labeling) LabelBytes() int64 { return scheme.BoxedLabelBytes * int64(l.tree.Cap()) }

// CloneLabeling shares the label slices, which are write-once (every
// assignment goes through extend, which allocates fresh storage), and
// the column of them until a static codec rewrites it.
func (l *Labeling) CloneLabeling() scheme.Labeling {
	cl := *l
	cl.tree = l.tree.Clone()
	cl.private = l.private.Fork()
	return &cl
}

// InsertSubtrees inserts fragments shaped like the given element
// trees as consecutive children of parent starting at position pos.
// The fragment roots' self labels are laid into the one sibling gap
// with a single NBetween call (descendants always get fresh initial
// labels); a static codec whose gap cannot hold the run falls back to
// sequential insertion, paying the per-fragment re-label cost a loop
// of single inserts would.
func (l *Labeling) InsertSubtrees(parent, pos int, shapes []*xmltree.Node) ([][]int, int, error) {
	if len(shapes) == 0 {
		return nil, 0, nil
	}
	for _, shape := range shapes {
		if shape == nil {
			return nil, 0, errors.New("prefix: nil shape")
		}
	}
	if err := l.tree.ValidateInsert(parent, pos); err != nil {
		return nil, 0, err
	}
	kids := l.tree.Children[parent]
	var left, right Component
	if pos > 0 {
		left = l.selfOf(kids[pos-1])
	}
	if pos < len(kids) {
		right = l.selfOf(kids[pos])
	}
	selfs, err := l.codec.NBetween(left, right, len(shapes))
	if err != nil && !errors.Is(err, ErrNoRoom) {
		return nil, 0, fmt.Errorf("prefix: %w", err)
	}
	sequential := err != nil
	ids := make([][]int, len(shapes))
	relabeled := 0
	for k, shape := range shapes {
		if sequential {
			fids, rl, err := l.InsertSubtree(parent, pos+k, shape)
			if err != nil {
				return nil, 0, err
			}
			ids[k] = fids
			relabeled += rl
			continue
		}
		rootID := l.tree.AddChild(parent, pos+k)
		l.labels.Append(extend(l.labels.At(parent), selfs[k]))
		if ids[k], err = l.addDescendants([]int{rootID}, rootID, shape); err != nil {
			return nil, 0, err
		}
	}
	return ids, relabeled, nil
}

// InsertSubtree inserts a fragment shaped like the given element tree
// as the pos-th child of parent. The fragment root's self label is
// created in the gap (re-labeling followers only under static codecs);
// its descendants receive fresh initial labels, which can never
// disturb existing nodes.
func (l *Labeling) InsertSubtree(parent, pos int, shape *xmltree.Node) ([]int, int, error) {
	if shape == nil {
		return nil, 0, errors.New("prefix: nil shape")
	}
	rootID, relabeled, err := l.InsertChildAt(parent, pos)
	if err != nil {
		return nil, 0, err
	}
	ids, err := l.addDescendants([]int{rootID}, rootID, shape)
	if err != nil {
		return nil, 0, err
	}
	return ids, relabeled, nil
}

// addDescendants labels the descendants of shape, whose root is
// already node id, with fresh initial self labels, and appends their
// ids to ids in preorder.
func (l *Labeling) addDescendants(ids []int, id int, shape *xmltree.Node) ([]int, error) {
	if len(shape.Children) == 0 {
		return ids, nil
	}
	selfs, err := l.codec.Initial(len(shape.Children))
	if err != nil {
		return nil, err
	}
	for i, c := range shape.Children {
		kid := l.tree.AddChild(id, i)
		l.labels.Append(extend(l.labels.At(id), selfs[i]))
		if ids, err = l.addDescendants(append(ids, kid), kid, c); err != nil {
			return nil, err
		}
	}
	return ids, nil
}
