package dyndoc

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// model is a document the way Document kept one before it dropped its
// xmltree: a mutable tree and an id → node table, edited in step with
// the document under test and deep-copied — never shared — when a
// snapshot of it is wanted. It is the oracle of the snapshot-isolation
// and XML differential tests; it shares no code with the columns, the
// labelings or package cow.
type model struct {
	doc   *xmltree.Document
	nodes []*xmltree.Node // by id; nil once deleted
}

// newModel takes ownership of doc.
func newModel(doc *xmltree.Document) *model {
	return &model{doc: doc, nodes: doc.Nodes()}
}

// clone is the deep copy Document.Clone used to make: the whole tree,
// and the node table re-pointed through a pointer map.
func (m *model) clone() *model {
	nodeMap := make(map[*xmltree.Node]*xmltree.Node, len(m.nodes))
	var copyTree func(n *xmltree.Node) *xmltree.Node
	copyTree = func(n *xmltree.Node) *xmltree.Node {
		out := &xmltree.Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
		nodeMap[n] = out
		for _, c := range n.Children {
			out.AppendChild(copyTree(c))
		}
		return out
	}
	root := copyTree(m.doc.Root)
	nodes := make([]*xmltree.Node, len(m.nodes))
	for i, n := range m.nodes {
		if n != nil {
			nodes[i] = nodeMap[n]
		}
	}
	return &model{doc: &xmltree.Document{Root: root}, nodes: nodes}
}

// apply performs edits the document under test accepted. Ids are
// dense and a fragment's are allocated in preorder, so the table stays
// aligned with the document's ids.
func (m *model) apply(t testing.TB, edits ...Edit) {
	t.Helper()
	for _, e := range edits {
		switch e.Op {
		case OpInsertElement:
			n := xmltree.NewElement(e.Name)
			if err := m.nodes[e.Parent].InsertChildAt(e.Pos, n); err != nil {
				t.Fatal(err)
			}
			m.nodes = append(m.nodes, n)
		case OpInsertTree:
			n := cloneTree(e.Fragment)
			if err := m.nodes[e.Parent].InsertChildAt(e.Pos, n); err != nil {
				t.Fatal(err)
			}
			m.nodes = append(m.nodes, (&xmltree.Document{Root: n}).Nodes()...)
		case OpDeleteSubtree:
			n := m.nodes[e.Node]
			if _, err := n.Parent.RemoveChildAt(n.Parent.ChildIndex(n)); err != nil {
				t.Fatal(err)
			}
			doomed := map[*xmltree.Node]bool{}
			for _, d := range (&xmltree.Document{Root: n}).Nodes() {
				doomed[d] = true
			}
			for i, d := range m.nodes {
				if doomed[d] {
					m.nodes[i] = nil
				}
			}
		}
	}
}

// cloneTree deep-copies a fragment.
func cloneTree(n *xmltree.Node) *xmltree.Node {
	out := &xmltree.Node{Kind: n.Kind, Name: n.Name, Data: n.Data}
	for _, c := range n.Children {
		out.AppendChild(cloneTree(c))
	}
	return out
}

// preorder returns the live ids in document order.
func (m *model) preorder() []int {
	idOf := make(map[*xmltree.Node]int, len(m.nodes))
	for id, n := range m.nodes {
		if n != nil {
			idOf[n] = id
		}
	}
	nodes := m.doc.Nodes()
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = idOf[n]
	}
	return out
}

// liveIDs returns the ids of live nodes, elements only when asked.
func (m *model) liveIDs(elementsOnly bool) []int {
	var out []int
	for id, n := range m.nodes {
		if n != nil && (!elementsOnly || n.Kind == xmltree.Element) {
			out = append(out, id)
		}
	}
	return out
}

// check compares everything d answers with the model: the XML, the
// structure, the names, every query in paths, and Before/IsAncestor on
// pairs sampled pairs. It reports through t.Errorf, so it may run on
// any goroutine. It only reads d and m.
func (m *model) check(t *testing.T, what string, d *Document, paths []string, rng *rand.Rand, pairs int) {
	t.Helper()
	if got, want := d.XML(), m.doc.String(); got != want {
		t.Errorf("%s: XML\n got %s\nwant %s", what, got, want)
		return
	}
	pre := m.preorder()
	if got := d.Labeling().Tree().PreOrder(); !slices.Equal(got, pre) {
		t.Errorf("%s: preorder ids %v, want %v", what, got, pre)
		return
	}
	if d.Len() != len(pre) {
		t.Errorf("%s: Len %d, want %d", what, d.Len(), len(pre))
	}
	at := make(map[int]int, len(pre)) // id → document position
	for i, id := range pre {
		at[id] = i
		want := ""
		if n := m.nodes[id]; n.Kind == xmltree.Element {
			want = n.Name
		}
		if got, err := d.Name(id); err != nil || got != want {
			t.Errorf("%s: Name(%d) = %q, %v, want %q", what, id, got, err, want)
		}
	}
	// A document built from the model alone numbers its nodes in
	// document order, which pre maps back to the ids under test.
	fresh, err := New(m.doc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	// The two * name tests read the index's all-elements list, which a
	// slice index fills from a walk of d on first use.
	for _, p := range append([]string{"//*", "/*/*"}, paths...) {
		q, err := xpath.Parse(p)
		if err != nil {
			t.Errorf("%s: %v", what, err)
			return
		}
		got, err := d.Query(q)
		if err != nil {
			t.Errorf("%s: %s: %v", what, p, err)
			continue
		}
		want, err := fresh.Query(q)
		if err != nil {
			t.Errorf("%s: %s on the model: %v", what, p, err)
			continue
		}
		for i := range want {
			want[i] = pre[want[i]]
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %s = %v, want %v", what, p, got, want)
		}
	}
	lab := d.Labeling()
	for i := 0; i < pairs; i++ {
		u, v := pre[rng.Intn(len(pre))], pre[rng.Intn(len(pre))]
		if got, want := lab.Before(u, v), at[u] < at[v]; got != want {
			t.Errorf("%s: Before(%d,%d) = %v, want %v", what, u, v, got, want)
		}
		anc := false
		for p := m.nodes[v].Parent; p != nil; p = p.Parent {
			anc = anc || p == m.nodes[u]
		}
		if got := lab.IsAncestor(u, v); got != anc {
			t.Errorf("%s: IsAncestor(%d,%d) = %v, want %v", what, u, v, got, anc)
		}
	}
}
