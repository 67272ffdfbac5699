package primelbl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Labeling adapts Scheme to the scheme.Labeling contract ("Prime" in
// the paper's figures).
type Labeling struct {
	s    *Scheme
	tree *scheme.Tree
}

var _ scheme.Labeling = (*Labeling)(nil)

// BuildLabeling is the scheme.Builder for Prime.
func BuildLabeling(doc *xmltree.Document) (scheme.Labeling, error) {
	return NewLabeling(doc)
}

// NewLabeling labels doc with the prime scheme.
func NewLabeling(doc *xmltree.Document) (*Labeling, error) {
	tree := scheme.NewTree(doc)
	parents := make([]int, tree.Cap())
	for v := range parents {
		parents[v] = tree.Parent(v)
	}
	s, err := Build(parents)
	if err != nil {
		return nil, err
	}
	return &Labeling{s: s, tree: tree}, nil
}

// Name returns "Prime".
func (l *Labeling) Name() string { return "Prime" }

// Len returns the live node count.
func (l *Labeling) Len() int { return l.tree.Len() }

// Tree exposes the structural mirror.
func (l *Labeling) Tree() *scheme.Tree { return l.tree }

// Scheme exposes the underlying prime machinery.
func (l *Labeling) Scheme() *Scheme { return l.s }

// CloneLabeling copies the SC values and labels and clones the tree.
func (l *Labeling) CloneLabeling() scheme.Labeling {
	return &Labeling{s: l.s.Clone(), tree: l.tree.Clone()}
}

// Level returns the node depth. Prime labels do not encode the level;
// like the original implementation the depth is tracked beside them.
func (l *Labeling) Level(v int) int { return l.tree.Depth(v) }

// IsAncestor tests divisibility of the product labels.
func (l *Labeling) IsAncestor(u, v int) bool { return l.s.IsAncestor(u, v) }

// IsParent tests label(v)/self(v) == label(u).
func (l *Labeling) IsParent(u, v int) bool { return l.s.IsParent(u, v) }

// IsSibling reports whether u and v are distinct nodes with the same
// quotient label(x)/self(x), i.e. the same parent label.
func (l *Labeling) IsSibling(u, v int) bool {
	if u == v || u == 0 || v == 0 {
		return false
	}
	var qu, qv big.Int
	qu.Quo(l.s.labels.At(u), big.NewInt(l.s.selfPrimes.At(u)))
	qv.Quo(l.s.labels.At(v), big.NewInt(l.s.selfPrimes.At(v)))
	return qu.Cmp(&qv) == 0
}

// Before derives document order from the SC values.
func (l *Labeling) Before(u, v int) bool { return l.s.Before(u, v) }

// TotalLabelBits charges each node its product label and its
// self_label (the parent test label(v)/self(v) needs both stored),
// plus the shared SC values.
func (l *Labeling) TotalLabelBits() int64 {
	var total int64
	for i := 0; i < l.s.Len(); i++ {
		if !l.tree.Alive(i) {
			continue
		}
		total += int64(l.s.LabelBits(i))
		total += int64(bitLen64(l.s.SelfPrime(i)))
	}
	return total + int64(l.s.SCBits())
}

// DeleteSubtree removes node v and its descendants. Prime's SC values
// and the surviving labels are untouched: the relative ordering
// numbers of the remaining nodes keep their order.
func (l *Labeling) DeleteSubtree(v int) (int, error) {
	return l.tree.RemoveSubtree(v)
}

// bitLen64 returns the bit length of v (min 1).
func bitLen64(v int64) int {
	n := 1
	for v >>= 1; v > 0; v >>= 1 {
		n++
	}
	return n
}

// InsertChildAt inserts a fresh element as the pos-th child of parent.
// Prime never re-labels: the returned count is the number of SC values
// recomputed (the Table 4 quantity for Prime).
func (l *Labeling) InsertChildAt(parent, pos int) (int, int, error) {
	if err := l.tree.ValidateInsert(parent, pos); err != nil {
		return 0, 0, err
	}
	kids := l.tree.Children[parent]
	var docPos int
	switch {
	case pos < len(kids):
		docPos = int(l.s.Ordering(kids[pos])) - 1
	case len(kids) > 0:
		docPos = int(l.s.Ordering(l.tree.SubtreeLast(kids[len(kids)-1])))
	default:
		docPos = int(l.s.Ordering(parent))
	}
	recalcs, err := l.s.InsertBefore(docPos, parent)
	if err != nil {
		return 0, 0, err
	}
	id := l.tree.AddChild(parent, pos)
	if id != l.s.Len()-1 {
		return 0, 0, fmt.Errorf("primelbl: id drift: tree %d vs scheme %d", id, l.s.Len()-1)
	}
	return id, recalcs, nil
}

// Ordering returns node i's current 1-based ordering number.
func (s *Scheme) Ordering(i int) int64 { return s.ordering[i] }

// MarshalLabel serialises node v's Prime label: the product label's
// big-endian bytes, length-prefixed, followed by the self prime.
func (l *Labeling) MarshalLabel(v int) ([]byte, error) {
	if !l.tree.Alive(v) {
		return nil, fmt.Errorf("%w: %d", scheme.ErrBadNode, v)
	}
	product := l.s.Label(v).Bytes()
	out := binary.AppendUvarint(nil, uint64(len(product)))
	out = append(out, product...)
	return binary.AppendUvarint(out, uint64(l.s.SelfPrime(v))), nil
}

// InsertSubtree inserts a fragment shaped like the given element tree
// as the pos-th child of parent, node by node (Prime has no cheaper
// bulk path: every node needs a fresh prime and the SC values shift
// regardless). The returned count accumulates SC recomputations.
func (l *Labeling) InsertSubtree(parent, pos int, shape *xmltree.Node) ([]int, int, error) {
	if shape == nil {
		return nil, 0, errors.New("primelbl: nil shape")
	}
	var ids []int
	total := 0
	var add func(p, at int, n *xmltree.Node) error
	add = func(p, at int, n *xmltree.Node) error {
		id, recalcs, err := l.InsertChildAt(p, at)
		if err != nil {
			return err
		}
		total += recalcs
		ids = append(ids, id)
		for i, c := range n.Children {
			if err := add(id, i, c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := add(parent, pos, shape); err != nil {
		return nil, 0, err
	}
	return ids, total, nil
}

// InsertSubtrees is InsertSubtree fragment by fragment: with no bulk
// path a run has nothing to share.
func (l *Labeling) InsertSubtrees(parent, pos int, shapes []*xmltree.Node) ([][]int, int, error) {
	for _, shape := range shapes {
		if shape == nil {
			return nil, 0, errors.New("primelbl: nil shape")
		}
	}
	ids := make([][]int, len(shapes))
	total := 0
	for k, shape := range shapes {
		fids, recalcs, err := l.InsertSubtree(parent, pos+k, shape)
		if err != nil {
			return nil, 0, err
		}
		ids[k] = fids
		total += recalcs
	}
	return ids, total, nil
}

// AppendOrderedLabel fails: a node's order is its SC-derived document
// position, which an insert re-assigns.
func (l *Labeling) AppendOrderedLabel([]byte, int) ([]byte, error) {
	return nil, fmt.Errorf("%w: Prime", scheme.ErrNoOrderedLabels)
}

// LimitLabel is inert: there is no ordered label to limit.
func (l *Labeling) LimitLabel(int) {}

// LongestLabel returns 0: there is no ordered label.
func (l *Labeling) LongestLabel() int { return 0 }

// LabelBytes estimates the labels, each a big.Int of its own.
func (l *Labeling) LabelBytes() int64 { return scheme.BoxedLabelBytes * int64(l.tree.Cap()) }
