package containment

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/keys"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

func allCodecs() []keys.Codec {
	return []keys.Codec{keys.VBinary(), keys.FBinary(), keys.Float(), keys.VCDBS(), keys.FCDBS(), keys.QED()}
}

// oracle is the containment scheme over boxed keys and a test-local
// reference of the codec's kernels: the representation the packed
// Labeling replaced, kept here as the reference it must agree with key
// for key.
type oracle struct {
	codec      keys.Codec
	ref        reference
	tree       *scheme.Tree
	start, end []keys.Key
}

func newOracle(t *testing.T, codec keys.Codec, doc *xmltree.Document) *oracle {
	o := &oracle{codec: codec, ref: referenceOf(codec), tree: scheme.NewTree(doc)}
	if o.reassign(t) != 0 {
		t.Fatal("first assignment re-labeled")
	}
	return o
}

func (o *oracle) reassign(t *testing.T) (changed int) {
	ks, err := o.ref.Encode(2 * o.tree.Len())
	if err != nil {
		t.Fatal(err)
	}
	start, end := make([]keys.Key, o.tree.Cap()), make([]keys.Key, o.tree.Cap())
	var walk func(v int)
	walk = func(v int) {
		start[v], ks = ks[0], ks[1:]
		for _, c := range o.tree.Kids(v) {
			walk(c)
		}
		end[v], ks = ks[0], ks[1:]
	}
	walk(o.tree.PreOrder()[0])
	for v := range o.start {
		if o.tree.Alive(v) && o.start[v] != nil && (o.ref.Compare(o.start[v], start[v]) != 0 || o.ref.Compare(o.end[v], end[v]) != 0) {
			changed++
		}
	}
	o.start, o.end = start, end
	return changed
}

func (o *oracle) gap(parent, pos int) (l, r keys.Key) {
	kids := o.tree.Kids(parent)
	l, r = o.start[parent], o.end[parent]
	if pos > 0 {
		l = o.end[kids[pos-1]]
	}
	if pos < len(kids) {
		r = o.start[kids[pos]]
	}
	return l, r
}

// insert places the fragments' keys in the gap at (parent, pos): the
// two sequential Betweens of InsertChildAt when single, one NBetween
// otherwise. It returns the re-label count.
func (o *oracle) insert(t *testing.T, parent, pos int, shapes []*xmltree.Node, single bool) int {
	l, r := o.gap(parent, pos)
	var ks []keys.Key
	var err error
	if single {
		var m1, m2 keys.Key
		if m1, err = o.ref.Between(l, r); err == nil {
			m2, err = o.ref.Between(m1, r)
		}
		ks = []keys.Key{m1, m2}
	} else {
		total := 0
		for _, s := range shapes {
			total += s.SubtreeSize()
		}
		ks, err = o.ref.NBetween(l, r, 2*total)
	}
	if err != nil && !errors.Is(err, keys.ErrNoRoom) {
		t.Fatal(err)
	}
	var add func(p, at int, n *xmltree.Node)
	add = func(p, at int, n *xmltree.Node) {
		id := o.tree.AddChild(p, at)
		o.start, o.end = append(o.start, nil), append(o.end, nil)
		if err == nil {
			o.start[id], ks = ks[0], ks[1:]
		}
		for i, c := range n.Children {
			add(id, i, c)
		}
		if err == nil {
			o.end[id], ks = ks[0], ks[1:]
		}
	}
	for k, s := range shapes {
		add(parent, pos+k, s)
	}
	if err != nil {
		return o.reassign(t)
	}
	return 0
}

// check compares every label-derived answer of l with the oracle's.
func (o *oracle) check(t *testing.T, l *Labeling, rng *rand.Rand, step string) {
	t.Helper()
	live := o.tree.PreOrder()
	if !reflect.DeepEqual(live, l.Tree().PreOrder()) {
		t.Fatalf("%s: trees diverged", step)
	}
	var all []keys.Key
	_, ordered := o.codec.(keys.OrderedBytes)
	var dst []byte
	for _, v := range live {
		all = append(all, o.start[v], o.end[v])
		for _, p := range [][2]keys.Key{{l.StartKey(v), o.start[v]}, {l.EndKey(v), o.end[v]}} {
			if reflect.TypeOf(p[0]) != reflect.TypeOf(p[1]) || o.ref.Compare(p[0], p[1]) != 0 {
				t.Fatalf("%s: node %d key %v (%T), oracle %v (%T)", step, v, p[0], p[0], p[1], p[1])
			}
		}
		want := o.ref.AppendKey(nil, o.start[v])
		want = o.ref.AppendKey(want, o.end[v])
		want = append(want, byte(o.tree.Depth(v)))
		if got, err := l.MarshalLabel(v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: node %d MarshalLabel %x, %v, oracle %x", step, v, got, err, want)
		}
		var err error
		dst, err = l.AppendOrderedLabel(dst[:0], v)
		if !ordered {
			if !errors.Is(err, scheme.ErrNoOrderedLabels) {
				t.Fatalf("%s: AppendOrderedLabel under %s: %v", step, o.codec.Name(), err)
			}
			continue
		}
		if want := o.ref.AppendOrdered(nil, o.start[v]); err != nil || !bytes.Equal(dst, want) {
			t.Fatalf("%s: node %d ordered label %x, %v, oracle %x", step, v, dst, err, want)
		}
	}
	if got, want := l.TotalLabelBits(), int64(o.ref.TotalBits(all)+levelBits*len(live)); got != want {
		t.Fatalf("%s: TotalLabelBits %d, oracle %d", step, got, want)
	}
	for i := 0; i < 4*len(live); i++ {
		u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		before := o.ref.Compare(o.start[u], o.start[v]) < 0
		anc := before && o.ref.Compare(o.end[v], o.end[u]) < 0
		if l.Before(u, v) != before || l.IsAncestor(u, v) != anc || anc != o.tree.IsAncestorStructural(u, v) {
			t.Fatalf("%s: (%d,%d) Before %v IsAncestor %v, oracle %v %v", step, u, v, l.Before(u, v), l.IsAncestor(u, v), before, anc)
		}
	}
}

// randomShape returns an element tree of 1..6 nodes.
func randomShape(rng *rand.Rand) *xmltree.Node {
	n := &xmltree.Node{Kind: xmltree.Element, Name: "f"}
	for budget := rng.Intn(6); budget > 0; budget-- {
		at := n
		for len(at.Children) > 0 && rng.Intn(2) == 0 {
			at = at.Children[rng.Intn(len(at.Children))]
		}
		at.Children = append(at.Children, &xmltree.Node{Kind: xmltree.Element, Name: "f", Parent: at})
	}
	return n
}

// TestPackedMatchesKeyLevelOracle drives seeded random edit histories
// through the packed labeling and through the oracle, under all six
// codecs, and compares every label-derived answer and the re-label
// counts after every step.
func TestPackedMatchesKeyLevelOracle(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 30
	}
	for _, codec := range allCodecs() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", codec.Name(), seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				l, err := New(codec, doc(t))
				if err != nil {
					t.Fatal(err)
				}
				o := newOracle(t, codec, doc(t))
				o.check(t, l, rng, "build")
				for i := 0; i < steps; i++ {
					live := o.tree.PreOrder()
					parent := live[rng.Intn(len(live))]
					pos := rng.Intn(len(o.tree.Kids(parent)) + 1)
					var step string
					var got, want int
					switch op := rng.Intn(10); {
					case op < 5:
						step = fmt.Sprintf("step %d InsertChildAt(%d,%d)", i, parent, pos)
						_, got, err = l.InsertChildAt(parent, pos)
						want = o.insert(t, parent, pos, []*xmltree.Node{{Kind: xmltree.Element}}, true)
					case op < 7:
						shape := randomShape(rng)
						step = fmt.Sprintf("step %d InsertSubtree(%d,%d,%d nodes)", i, parent, pos, shape.SubtreeSize())
						_, got, err = l.InsertSubtree(parent, pos, shape)
						want = o.insert(t, parent, pos, []*xmltree.Node{shape}, false)
					case op < 8:
						shapes := []*xmltree.Node{randomShape(rng), randomShape(rng), randomShape(rng)}
						step = fmt.Sprintf("step %d InsertSubtrees(%d,%d)", i, parent, pos)
						_, got, err = l.InsertSubtrees(parent, pos, shapes)
						want = o.insert(t, parent, pos, shapes, false)
					default:
						if parent == live[0] {
							continue
						}
						step = fmt.Sprintf("step %d DeleteSubtree(%d)", i, parent)
						got, err = l.DeleteSubtree(parent)
						want, _ = o.tree.RemoveSubtree(parent)
					}
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					if got != want {
						t.Fatalf("%s: returned %d, oracle %d", step, got, want)
					}
					o.check(t, l, rng, step)
				}
			})
		}
	}
}
