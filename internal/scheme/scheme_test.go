package scheme

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

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
	if len(tr.Kids(0)) != 2 || tr.Kids(0)[0] != 1 || tr.Kids(0)[1] != 4 {
		t.Errorf("root children = %v", tr.Kids(0))
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
	if tr.Kids(1)[1] != id || tr.Depth(id) != 3 {
		t.Errorf("child misplaced: %v depth %d", tr.Kids(1), tr.Depth(id))
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
	if len(tr.Kids(0)) != 1 || tr.Kids(0)[0] != 4 {
		t.Errorf("root children = %v", tr.Kids(0))
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
// child lists grown by append. It returns the links and the lists.
func refNewTree(doc *xmltree.Document) ([]link, [][]int) {
	nodes := doc.Nodes()
	index := make(map[*xmltree.Node]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	up, lists := make([]link, len(nodes)), make([][]int, len(nodes))
	for i, n := range nodes {
		if n.Parent == nil {
			up[i] = link{-1, 1}
			continue
		}
		p := index[n.Parent]
		up[i] = link{int32(p), up[p].depth + 1}
		lists[p] = append(lists[p], i)
	}
	return up, lists
}

// TestNewTreeMatchesMapBuild holds the one-pass NewTree to the
// map-based construction on every generated dataset and on the corner
// shapes: one node, text and attribute nodes, no root. The Children
// Unpack lays mirror Kids, and Adopt drops them without moving the slab.
func TestNewTreeMatchesMapBuild(t *testing.T) {
	check := func(name string, doc *xmltree.Document) {
		t.Helper()
		got := NewTree(doc)
		up, lists := refNewTree(doc)
		got.Unpack()
		if got.Len() != len(up) || got.Cap() != len(up) ||
			!reflect.DeepEqual(got.up.Flat(), up) ||
			!reflect.DeepEqual(got.Children, lists) {
			t.Errorf("%s: one-pass tree differs from the map-built one", name)
		}
		mirrors(t, name, got)
		for v := range got.Children {
			if !got.Alive(v) {
				t.Fatalf("%s: node %d not alive", name, v)
			}
		}
		slab := got.kids.Used()
		got.Adopt()
		if got.Children != nil || got.kids.Used() != slab {
			t.Fatalf("%s: Adopt kept Children or moved the slab", name)
		}
		for v, kids := range lists {
			if !slices.Equal(got.Kids(v), kids) {
				t.Fatalf("%s: adopted Kids(%d) = %v, want %v", name, v, got.Kids(v), kids)
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

// TestAdoptedRunGrows holds a live tree's root list, the slab's last
// run whatever the slab's spare capacity, to a model while its owner
// inserts in front of it: in place into the free slot, then moved to
// the arena's end, its directory entry rewritten, with twice the room
// each time it fills.
func TestAdoptedRunGrows(t *testing.T) {
	for k := 0; k < 6; k++ {
		doc, err := xmltree.ParseString("<r>" + strings.Repeat("<a/>", k) + "</r>")
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTree(doc)
		want := slices.Clone(tr.Kids(0))
		for i := 0; i < 100; i++ {
			id := tr.AddChild(0, 0)
			want = slices.Insert(want, 0, id)
			if i%3 == 2 {
				if _, err := tr.RemoveSubtree(want[1]); err != nil {
					t.Fatal(err)
				}
				want = slices.Delete(want, 1, 2)
			}
			if got := tr.Kids(0); !slices.Equal(got, want) {
				t.Fatalf("%d children, step %d: Kids(0) = %v, want %v", k, i, got, want)
			}
		}
	}
}

// TestOwnerAppendBytes pins an owner's growth as amortised O(1): 10 000
// children appended under the root of a flat live document, whose
// list holds nearly every live node. A full run moves to twice its room;
// were that room counted dead, every second append would repack
// of the whole tree (65 KB an append here).
func TestOwnerAppendBytes(t *testing.T) {
	const n = 10000
	doc, err := xmltree.ParseString("<r>" + strings.Repeat("<a/>", 100) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(doc)
	var before, after runtime.MemStats
	func() {
		// One P, as testing.AllocsPerRun: no other goroutine's bytes.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			tr.AddChild(0, 100+i)
		}
		runtime.ReadMemStats(&after)
	}()
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d appends under the root: %.1f B each", n, per)
	if per > 128 {
		t.Errorf("%d appends under the root allocate %.1f B each, want <= 128", n, per)
	}
	if got := len(tr.Kids(0)); got != 100+n {
		t.Errorf("the root has %d children, want %d", got, 100+n)
	}
}

// countFillers counts the -1 slots after each live run that t wrote
// since the family's last fork: the fillers its runs may still take,
// which t.fillers must count exactly.
func countFillers(t *Tree) int {
	n := 0
	t.lists(func(v int, _ []int) {
		s := t.span(v)
		for off := int(s.off + s.n); int(s.off) >= t.mark && off < t.kids.End(); off++ {
			if rest := t.kids.From(off); len(rest) == 0 || rest[0] != -1 {
				break
			}
			n++
		}
	})
	return n
}

// TestFillersCounted holds an owner's count of fillers to its runs'
// while runs leave fillers behind: the root's run growing in place to
// 254 ids and moving at 255, a run cut in place to no ids, and a parent
// deleted with fillers after its run. Counted too high, they would hide
// dead slots from the repack.
func TestFillersCounted(t *testing.T) {
	doc, err := xmltree.ParseString("<r>" + strings.Repeat("<a><b/><b/></a>", 200) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(doc)
	check := func(what string) {
		t.Helper()
		if got, want := tr.fillers, countFillers(tr); got != want {
			t.Fatalf("%s: the tree counts %d fillers, its runs have %d", what, got, want)
		}
	}
	check("NewTree")
	a := slices.Clone(tr.Kids(0)[:2])
	for len(tr.Kids(0)) < 300 {
		tr.AddChild(0, len(tr.Kids(0)))
		check(fmt.Sprintf("the root at %d ids", len(tr.Kids(0))))
	}
	for _, v := range a {
		for _, b := range slices.Clone(tr.Kids(v)) {
			if _, err := tr.RemoveSubtree(b); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%d's run cut to %d ids", v, len(tr.Kids(v))))
		}
	}
	tr.AddChild(a[0], 0)
	check("an emptied run given an id")
	v := tr.Kids(0)[5]
	tr.AddChild(v, 0)
	tr.AddChild(v, 0)
	if _, err := tr.RemoveSubtree(v); err != nil {
		t.Fatal(err)
	}
	check("a parent with fillers deleted")
}

// TestShrunkRunRepacks cuts a root of 10 000 children to 10, one delete
// at a time, and then inserts and deletes one child under it 100 times.
// Each cut frees a slot after the root's run, which its owner keeps as a
// filler; were every filler counted as room, the arena would keep its
// 10 002 slots for 11 live nodes and no edit would repack it. At most one
// filler per live id counts.
func TestShrunkRunRepacks(t *testing.T) {
	const n = 10000
	doc, err := xmltree.ParseString("<r>" + strings.Repeat("<a/>", n) + "</r>")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTree(doc)
	for kids := tr.Kids(0); len(kids) > 10; kids = tr.Kids(0) {
		if _, err := tr.RemoveSubtree(kids[len(kids)-1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := tr.RemoveSubtree(tr.AddChild(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	slots, dead := tr.Packing()
	t.Logf("%d live nodes: %d arena slots, %d dead, %d B", tr.Len(), slots, dead, tr.Bytes())
	if slots > 128 {
		t.Errorf("a root cut from %d children to 10 keeps %d arena slots (%d dead, %d B) for %d live nodes, want <= 128",
			n, slots, dead, tr.Bytes(), tr.Len())
	}
}
