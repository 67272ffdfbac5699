package xpath

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/containment"
	"repro/internal/datagen"
	"repro/internal/keys"
	"repro/internal/prefix"
	"repro/internal/registry"
	"repro/internal/xmltree"
)

// oracle is an independent, structure-walking evaluator of the same
// XPath fragment. It knows nothing about labels: every axis is
// computed from the parsed tree directly, which makes it a trustworthy
// reference for the label-driven engine.
type oracle struct {
	nodes  []*xmltree.Node
	index  map[*xmltree.Node]int
	docPos map[*xmltree.Node]int
}

func newOracle(doc *xmltree.Document) *oracle {
	o := &oracle{
		index:  map[*xmltree.Node]int{},
		docPos: map[*xmltree.Node]int{},
	}
	o.nodes = doc.Nodes()
	for i, n := range o.nodes {
		o.index[n] = i
		o.docPos[n] = i
	}
	return o
}

func (o *oracle) eval(q *Query, ctx []*xmltree.Node, fromRoot bool) []*xmltree.Node {
	for si, step := range q.Steps {
		var out []*xmltree.Node
		first := fromRoot && si == 0
		switch step.Axis {
		case Child:
			if first {
				root := o.nodes[0]
				if o.matches(step.Name, root) {
					out = append(out, root)
				}
			} else {
				for _, c := range ctx {
					for _, k := range c.Children {
						if o.matches(step.Name, k) {
							out = append(out, k)
						}
					}
				}
				o.sortDoc(out)
			}
		case Descendant:
			var from []*xmltree.Node
			if first {
				from = []*xmltree.Node{o.nodes[0].Parent} // nil sentinel unused
				out = o.descendants(o.nodes[0], true, step.Name)
			} else {
				seen := map[*xmltree.Node]bool{}
				for _, c := range ctx {
					for _, d := range o.descendants(c, false, step.Name) {
						if !seen[d] {
							seen[d] = true
							out = append(out, d)
						}
					}
				}
				o.sortDoc(out)
			}
			_ = from
		case PrecedingSibling, FollowingSibling:
			seen := map[*xmltree.Node]bool{}
			for _, c := range ctx {
				if c.Parent == nil {
					continue
				}
				beforeC := true
				for _, sib := range c.Parent.Children {
					if sib == c {
						beforeC = false
						continue
					}
					want := beforeC == (step.Axis == PrecedingSibling)
					if want && o.matches(step.Name, sib) && !seen[sib] {
						seen[sib] = true
						out = append(out, sib)
					}
				}
			}
			o.sortDoc(out)
		case Parent:
			seen := map[*xmltree.Node]bool{}
			for _, c := range ctx {
				p := c.Parent
				if p != nil && o.matches(step.Name, p) && !seen[p] {
					seen[p] = true
					out = append(out, p)
				}
			}
			o.sortDoc(out)
		case Ancestor:
			seen := map[*xmltree.Node]bool{}
			for _, c := range ctx {
				for p := c.Parent; p != nil; p = p.Parent {
					if o.matches(step.Name, p) && !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
			o.sortDoc(out)
		case Following:
			seen := map[*xmltree.Node]bool{}
			for _, c := range ctx {
				end := o.subtreeEnd(c)
				for i := end + 1; i < len(o.nodes); i++ {
					n := o.nodes[i]
					if o.matches(step.Name, n) && !seen[n] {
						seen[n] = true
						out = append(out, n)
					}
				}
			}
			o.sortDoc(out)
		}
		for _, pred := range step.Preds {
			out = o.applyPred(out, step, pred)
		}
		ctx = out
	}
	return ctx
}

// matches implements the name test on element nodes only.
func (o *oracle) matches(test string, n *xmltree.Node) bool {
	if n == nil || n.Kind != xmltree.Element {
		return false
	}
	return test == "*" || n.Name == test
}

// descendants collects matching descendants of n (self excluded unless
// includeSelf).
func (o *oracle) descendants(n *xmltree.Node, includeSelf bool, name string) []*xmltree.Node {
	var out []*xmltree.Node
	var walk func(m *xmltree.Node, self bool)
	walk = func(m *xmltree.Node, self bool) {
		if (!self || includeSelf) && o.matches(name, m) {
			out = append(out, m)
		}
		for _, c := range m.Children {
			walk(c, false)
		}
	}
	walk(n, true)
	return out
}

// subtreeEnd returns the doc index of the last node in n's subtree.
func (o *oracle) subtreeEnd(n *xmltree.Node) int {
	last := n
	for len(last.Children) > 0 {
		last = last.Children[len(last.Children)-1]
	}
	return o.docPos[last]
}

func (o *oracle) sortDoc(ns []*xmltree.Node) {
	sort.Slice(ns, func(i, j int) bool { return o.docPos[ns[i]] < o.docPos[ns[j]] })
}

func (o *oracle) applyPred(in []*xmltree.Node, step Step, pred Pred) []*xmltree.Node {
	var out []*xmltree.Node
	for _, n := range in {
		if pred.Position > 0 {
			if o.position(step.Name, n) == pred.Position {
				out = append(out, n)
			}
			continue
		}
		if len(o.eval(pred.Path, []*xmltree.Node{n}, false)) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// position returns n's 1-based position among same-test siblings.
func (o *oracle) position(test string, n *xmltree.Node) int {
	if n.Parent == nil {
		return 1
	}
	pos := 0
	for _, sib := range n.Parent.Children {
		if o.matches(test, sib) {
			pos++
		}
		if sib == n {
			break
		}
	}
	return pos
}

func (o *oracle) ids(ns []*xmltree.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = o.index[n]
	}
	return out
}

// randomNamedDoc builds a random document over a small vocabulary so
// that queries hit.
func randomNamedDoc(gen *rand.Rand, n int) *xmltree.Document {
	names := []string{"a", "b", "c", "d"}
	root := xmltree.NewElement("root")
	elems := []*xmltree.Node{root}
	for len(elems) < n {
		p := elems[gen.Intn(len(elems))]
		child := xmltree.NewElement(names[gen.Intn(len(names))])
		p.AppendChild(child)
		elems = append(elems, child)
	}
	return &xmltree.Document{Root: root}
}

// randomQuery builds a random query in the supported fragment.
func randomQuery(gen *rand.Rand) string {
	names := []string{"a", "b", "c", "d", "*"}
	steps := 1 + gen.Intn(3)
	q := ""
	for i := 0; i < steps; i++ {
		sep := "/"
		if gen.Intn(3) == 0 {
			sep = "//"
		}
		axis := ""
		if i > 0 && sep == "/" {
			switch gen.Intn(12) {
			case 0:
				axis = "preceding-sibling::"
			case 1:
				axis = "following::"
			case 2:
				axis = "following-sibling::"
			case 3:
				axis = "parent::"
			case 4:
				axis = "ancestor::"
			}
		}
		name := names[gen.Intn(len(names))]
		pred := ""
		switch gen.Intn(6) {
		case 0:
			pred = fmt.Sprintf("[%d]", 1+gen.Intn(3))
		case 1:
			pred = fmt.Sprintf("[./%s]", names[gen.Intn(4)])
		case 2:
			pred = fmt.Sprintf("[.//%s]", names[gen.Intn(4)])
		}
		q += sep + axis + name + pred
	}
	return q
}

// TestEngineMatchesOracleQuick fuzzes random documents and queries,
// comparing the label-driven engine (under two scheme families)
// against the structural oracle.
func TestEngineMatchesOracleQuick(t *testing.T) {
	gen := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		doc := randomNamedDoc(gen, 20+gen.Intn(60))
		o := newOracle(doc)
		labC, err := containment.New(keys.VCDBS(), doc)
		if err != nil {
			t.Fatal(err)
		}
		engC, err := NewEngine(doc, labC)
		if err != nil {
			t.Fatal(err)
		}
		labP, err := prefix.New(prefix.QEDCodec(), doc)
		if err != nil {
			t.Fatal(err)
		}
		engP, err := NewEngine(doc, labP)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 25; qi++ {
			qs := randomQuery(gen)
			q, err := Parse(qs)
			if err != nil {
				t.Fatalf("generated bad query %q: %v", qs, err)
			}
			want := o.ids(o.eval(q, nil, true))
			for name, eng := range map[string]*Engine{"containment": engC, "prefix": engP} {
				got, err := eng.Eval(q)
				if err != nil {
					t.Fatalf("%s: %q: %v", name, qs, err)
				}
				if !reflect.DeepEqual(normalize(got), normalize(want)) {
					t.Fatalf("trial %d %s: %q: engine %v, oracle %v\ndoc: %s",
						trial, name, qs, got, want, doc)
				}
			}
		}
	}
}

// normalize maps nil to empty for comparison.
func normalize(ids []int) []int {
	if len(ids) == 0 {
		return []int{}
	}
	return ids
}

// TestOracleSanity pins the oracle itself against the hand-computed
// answers of the main test document, so the fuzz comparison cannot
// pass vacuously.
func TestOracleSanity(t *testing.T) {
	doc, err := xmltree.ParseString(testDoc)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(doc)
	wants := map[string]int{
		"/play/act":                   3,
		"//act/scene/speech":          4,
		"/play/*//line":               7,
		"//act[2]/following::speaker": 1,
		"/play/personae/persona[3]/preceding-sibling::*":       3,
		"/play//personae[./title]/pgroup[.//grpdescr]/persona": 2,
	}
	for qs, want := range wants {
		got := len(o.eval(MustParse(qs), nil, true))
		if got != want {
			t.Errorf("oracle Count(%s) = %d, want %d", qs, got, want)
		}
	}
}

// TestAxesDocOrderAfterEdits is the regression for the sibling and
// parent axes returning their results in id order: on a document that
// has been edited, ids no longer follow document order, and the child
// step after such an axis (a structural join over a document-ordered
// context) dropped matches. The labeling absorbs random inserts, the
// same inserts are mirrored into a plain tree the oracle walks, and
// every result must equal the oracle's as a sequence, under every
// registered scheme.
func TestAxesDocOrderAfterEdits(t *testing.T) {
	queries := []string{
		"//b/preceding-sibling::a",
		"//b/preceding-sibling::a/c",
		"//b/following-sibling::a",
		"//b/following-sibling::a/c",
		"//c/parent::a",
		"//c/parent::a/b",
		"//*/preceding-sibling::*/*",
		"//*/following-sibling::*/*",
		"//*/parent::*/*",
	}
	for _, sn := range registry.Names() {
		entry, err := registry.Lookup(sn)
		if err != nil {
			t.Fatal(err)
		}
		gen := rand.New(rand.NewSource(5))
		doc := randomNamedDoc(gen, 12)
		lab, err := entry.Build(doc)
		if err != nil {
			t.Fatalf("%s: %v", sn, err)
		}
		byID := doc.Nodes() // a fresh labeling numbers nodes in preorder
		names := []string{"a", "b", "c"}
		for i := 0; i < 60; i++ {
			parent := gen.Intn(len(byID))
			pos := gen.Intn(len(byID[parent].Children) + 1)
			id, _, err := lab.InsertChildAt(parent, pos)
			if err != nil {
				t.Fatalf("%s: insert %d: %v", sn, i, err)
			}
			if id != len(byID) {
				t.Fatalf("%s: insert %d got id %d, want %d", sn, i, id, len(byID))
			}
			n := xmltree.NewElement(names[gen.Intn(len(names))])
			if err := byID[parent].InsertChildAt(pos, n); err != nil {
				t.Fatal(err)
			}
			byID = append(byID, n)
		}

		// The engine's index lists are in document order by contract;
		// take that order from the mirrored tree.
		idOf := make(map[*xmltree.Node]int, len(byID))
		elemNames := make([]string, len(byID))
		for id, n := range byID {
			idOf[n] = id
			elemNames[id] = n.Name
		}
		byName := map[string][]int{}
		var elems []int
		inOrder := true
		for i, n := range doc.Nodes() {
			id := idOf[n]
			inOrder = inOrder && id == i
			byName[n.Name] = append(byName[n.Name], id)
			elems = append(elems, id)
		}
		if inOrder {
			t.Fatalf("%s: edits left id order equal to document order; the test proves nothing", sn)
		}
		eng := NewEngineWithIndex(lab, elemNames, sliceIndex{byName: byName, elems: elems})
		o := newOracle(doc)
		for _, qs := range queries {
			q := MustParse(qs)
			var want []int
			for _, n := range o.eval(q, nil, true) {
				want = append(want, idOf[n])
			}
			if len(want) == 0 {
				t.Fatalf("%s: %q matches nothing; the test proves nothing", sn, qs)
			}
			got, err := eng.Eval(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", sn, qs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %q:\nengine %v\noracle %v", sn, qs, got, want)
			}
		}
	}
}

// TestSiblingParentAxisBytes pins what the sibling and parent axes
// allocate per evaluation on Hamlet: they deduplicate by marking child
// positions within a run of context nodes under one parent and leave the
// rest to the sort, so neither a per-call map of every id they return
// nor a copy of a common sibling per context node is paid for. (With the
// maps these read 99 473, 99 473 and 1 121 B; with the sort alone
// deduplicating, the first reads 1 160 454.)
func TestSiblingParentAxisBytes(t *testing.T) {
	doc := datagen.Hamlet()
	lab, err := containment.Build(keys.VCDBS())(doc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	for qs, limit := range map[string]int64{
		"//speech/following-sibling::speech":              40_000, // 1 181 ids
		"//line/parent::speech":                           40_000, // 1 182 ids
		"/play/personae/persona[12]/preceding-sibling::*": 1_000,  // 12 ids
	} {
		q := MustParse(qs)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if ids, err := e.Eval(q); err != nil || len(ids) == 0 {
				t.Fatalf("%s: %d ids, %v", qs, len(ids), err)
			}
		}
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %d B per evaluation", qs, got)
		if got > limit {
			t.Errorf("%s allocates %d B per evaluation, want at most %d", qs, got, limit)
		}
	}
}
