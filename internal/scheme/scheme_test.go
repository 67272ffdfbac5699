package scheme

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cow"
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

func buildTree(t *testing.T) *Tree {
	t.Helper()
	doc, err := xmltree.ParseString("<r><a><b/><c/></a><d/></r>")
	if err != nil {
		t.Fatal(err)
	}
	return NewTree(doc)
}

// ids: r=0 a=1 b=2 c=3 d=4

func TestNewTreeShape(t *testing.T) {
	tr := buildTree(t)
	if tr.Len() != 5 || tr.Cap() != 5 {
		t.Fatalf("Len=%d Cap=%d", tr.Len(), tr.Cap())
	}
	wantParents := []int{-1, 0, 1, 1, 0}
	for i, w := range wantParents {
		if tr.Parent(i) != w {
			t.Errorf("Parents[%d] = %d, want %d", i, tr.Parent(i), w)
		}
	}
	wantDepths := []int{1, 2, 3, 3, 2}
	for i, w := range wantDepths {
		if tr.Depth(i) != w {
			t.Errorf("Depths[%d] = %d, want %d", i, tr.Depth(i), w)
		}
	}
	if len(tr.Children[0]) != 2 || tr.Children[0][0] != 1 || tr.Children[0][1] != 4 {
		t.Errorf("root children = %v", tr.Children[0])
	}
}

func TestPreOrderAndSubtree(t *testing.T) {
	tr := buildTree(t)
	order := tr.PreOrder()
	want := []int{0, 1, 2, 3, 4}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("PreOrder = %v", order)
		}
	}
	if got := tr.SubtreeSize(1); got != 3 {
		t.Errorf("SubtreeSize(1) = %d", got)
	}
	if got := tr.SubtreeLast(1); got != 3 {
		t.Errorf("SubtreeLast(1) = %d", got)
	}
	if got := tr.SubtreeLast(2); got != 2 {
		t.Errorf("SubtreeLast(leaf) = %d", got)
	}
}

func TestAddChildAndSiblingPosition(t *testing.T) {
	tr := buildTree(t)
	id := tr.AddChild(1, 1) // between b and c
	if id != 5 || tr.Len() != 6 {
		t.Fatalf("AddChild id=%d Len=%d", id, tr.Len())
	}
	if tr.Children[1][1] != id || tr.Depth(id) != 3 {
		t.Errorf("child misplaced: %v depth %d", tr.Children[1], tr.Depth(id))
	}
	p, pos, err := tr.SiblingPosition(id)
	if err != nil || p != 1 || pos != 1 {
		t.Errorf("SiblingPosition = %d,%d,%v", p, pos, err)
	}
	if _, _, err := tr.SiblingPosition(0); err == nil {
		t.Error("root sibling position accepted")
	}
	if _, _, err := tr.SiblingPosition(-1); err == nil {
		t.Error("bad id accepted")
	}
}

func TestValidateInsert(t *testing.T) {
	tr := buildTree(t)
	if err := tr.ValidateInsert(0, 2); err != nil {
		t.Error(err)
	}
	if err := tr.ValidateInsert(0, 3); err == nil {
		t.Error("position past end accepted")
	}
	if err := tr.ValidateInsert(9, 0); err == nil {
		t.Error("bad parent accepted")
	}
}

func TestRemoveSubtree(t *testing.T) {
	tr := buildTree(t)
	removed, err := tr.RemoveSubtree(1)
	if err != nil || removed != 3 {
		t.Fatalf("RemoveSubtree = %d, %v", removed, err)
	}
	if tr.Len() != 2 {
		t.Errorf("Len = %d", tr.Len())
	}
	for _, v := range []int{1, 2, 3} {
		if tr.Alive(v) {
			t.Errorf("node %d still alive", v)
		}
	}
	if len(tr.Children[0]) != 1 || tr.Children[0][0] != 4 {
		t.Errorf("root children = %v", tr.Children[0])
	}
	if _, err := tr.RemoveSubtree(1); err == nil {
		t.Error("double removal accepted")
	}
	order := tr.PreOrder()
	if len(order) != 2 || order[0] != 0 || order[1] != 4 {
		t.Errorf("PreOrder after removal = %v", order)
	}
}

func TestIsAncestorStructural(t *testing.T) {
	tr := buildTree(t)
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 2, true}, {1, 2, true}, {1, 3, true}, {0, 4, true},
		{1, 4, false}, {2, 3, false}, {4, 0, false},
	}
	for _, c := range cases {
		if got := tr.IsAncestorStructural(c.u, c.v); got != c.want {
			t.Errorf("IsAncestorStructural(%d,%d) = %v", c.u, c.v, got)
		}
	}
}

func TestAliveBounds(t *testing.T) {
	tr := buildTree(t)
	if tr.Alive(-1) || tr.Alive(99) {
		t.Error("out-of-range ids alive")
	}
	if !tr.Alive(0) {
		t.Error("root dead")
	}
}

// refNewTree is NewTree as it was built before the one-pass walk: a
// node list, a map from node to id, parents looked up through it and
// child lists grown by append.
func refNewTree(doc *xmltree.Document) *Tree {
	nodes := doc.Nodes()
	index := make(map[*xmltree.Node]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	up := make([]link, len(nodes))
	t := &Tree{Children: make([][]int, len(nodes)), live: len(nodes)}
	for i, n := range nodes {
		if n.Parent == nil {
			up[i] = link{-1, 1}
			continue
		}
		p := index[n.Parent]
		up[i] = link{int32(p), up[p].depth + 1}
		t.Children[p] = append(t.Children[p], i)
	}
	t.up = cow.NewColumn(up)
	return t
}

// TestNewTreeMatchesMapBuild holds the one-pass NewTree to the
// map-based construction on every generated dataset and on the corner
// shapes: one node, text and attribute nodes, no root.
func TestNewTreeMatchesMapBuild(t *testing.T) {
	check := func(name string, doc *xmltree.Document) {
		t.Helper()
		got, want := NewTree(doc), refNewTree(doc)
		if got.Len() != want.live || got.Cap() != want.Cap() ||
			!reflect.DeepEqual(got.up.Flat(), want.up.Flat()) ||
			!reflect.DeepEqual(got.Children, want.Children) {
			t.Errorf("%s: one-pass tree differs from the map-built one", name)
		}
		for v, kids := range got.Children {
			if len(kids) != cap(kids) {
				t.Fatalf("%s: child list of %d has room for %d, holds %d", name, v, cap(kids), len(kids))
			}
			if !got.Alive(v) {
				t.Fatalf("%s: node %d not alive", name, v)
			}
		}
	}
	for _, spec := range datagen.Specs() {
		ds, err := datagen.Generate(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i, doc := range ds.Files {
			check(fmt.Sprintf("%s file %d", spec.Name, i), doc)
		}
	}
	check("Hamlet", datagen.Hamlet())
	for name, src := range map[string]string{
		"single node": "<r/>",
		"text":        "<r>a<b>c</b>d<e/>f</r>",
		"attributes":  `<r x="1" y="2"><a z="3">t</a><b/></r>`,
	} {
		doc, err := xmltree.ParseWithOptions(strings.NewReader(src), xmltree.ParseOptions{IncludeAttributes: true})
		if err != nil {
			t.Fatal(err)
		}
		check(name, doc)
	}
	check("nil root", &xmltree.Document{})
}
