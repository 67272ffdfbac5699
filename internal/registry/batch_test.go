package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// TestLookupUnknownScheme pins the typed failure mode of Lookup: the
// sentinel matches via errors.Is, near-miss names get a did-you-mean
// suggestion and hopeless names get the known-name list instead.
func TestLookupUnknownScheme(t *testing.T) {
	_, err := Lookup("V-CDBS-Containmen") // one deletion away
	if err == nil {
		t.Fatal("near-miss name accepted")
	}
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("errors.Is(err, ErrUnknownScheme) = false for %v", err)
	}
	var use *UnknownSchemeError
	if !errors.As(err, &use) {
		t.Fatalf("error %T is not *UnknownSchemeError", err)
	}
	if use.Suggestion != "V-CDBS-Containment" {
		t.Fatalf("Suggestion = %q, want V-CDBS-Containment", use.Suggestion)
	}
	if !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("near-miss message lacks a suggestion: %q", err)
	}

	_, err = Lookup("bogus")
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("errors.Is(err, ErrUnknownScheme) = false for %v", err)
	}
	if !errors.As(err, &use) {
		t.Fatalf("error %T is not *UnknownSchemeError", err)
	}
	if use.Suggestion != "" {
		t.Fatalf("Suggestion = %q for a hopeless name, want none", use.Suggestion)
	}
	if !strings.Contains(err.Error(), "known:") {
		t.Fatalf("hopeless-name message lacks the known list: %q", err)
	}
}

// insertShapes inserts the shapes as consecutive children of parent
// starting at pos, one InsertSubtree call per shape, returning the
// flattened preorder ids and the total re-label count — the sequential
// path every scheme supports.
func insertShapes(t *testing.T, lab scheme.Labeling, parent, pos int, shapes []*xmltree.Node) ([]int, int) {
	t.Helper()
	var ids []int
	relabeled := 0
	for k, shape := range shapes {
		fids, rl, err := lab.InsertSubtree(parent, pos+k, shape)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, fids...)
		relabeled += rl
	}
	return ids, relabeled
}

// TestBatchInsertConformance checks that for every scheme a batch
// insert of n siblings/subtrees is equivalent to n sequential inserts:
// the same ids in the same order, the same predicate answers, and no
// re-labeling for the dynamic schemes.
func TestBatchInsertConformance(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(40, 7)
			seq, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}

			// A run mixing leaf siblings with larger subtrees.
			gen := rand.New(rand.NewSource(23))
			shapes := []*xmltree.Node{
				xmltree.NewElement("s"),
				randomShape(gen, 4),
				xmltree.NewElement("s"),
				randomShape(gen, 7),
				xmltree.NewElement("s"),
			}
			parent := 0
			pos := len(seq.Tree().Kids(parent)) / 2

			seqIDs, _ := insertShapes(t, seq, parent, pos, shapes)

			var batIDs []int
			idss, batRelabeled, err := bat.InsertSubtrees(parent, pos, shapes)
			if err != nil {
				t.Fatal(err)
			}
			if len(idss) != len(shapes) {
				t.Fatalf("got %d id slices for %d shapes", len(idss), len(shapes))
			}
			for k, fids := range idss {
				if len(fids) != shapes[k].SubtreeSize() {
					t.Fatalf("fragment %d: %d ids for %d nodes", k, len(fids), shapes[k].SubtreeSize())
				}
				batIDs = append(batIDs, fids...)
			}

			if len(seqIDs) != len(batIDs) {
				t.Fatalf("sequential created %d ids, batch %d", len(seqIDs), len(batIDs))
			}
			for i := range seqIDs {
				if seqIDs[i] != batIDs[i] {
					t.Fatalf("id %d: sequential %d, batch %d", i, seqIDs[i], batIDs[i])
				}
			}
			if entry.Dynamic && entry.Name != "Prime" && batRelabeled != 0 {
				t.Fatalf("dynamic scheme relabeled %d on batch insert", batRelabeled)
			}

			// Both documents must answer every predicate identically —
			// each is checked against the structural oracle, and a pair
			// sample is compared across the two labelings directly.
			checkAgainstOracle(t, seq)
			checkAgainstOracle(t, bat)
			n := bat.Tree().Len()
			for trial := 0; trial < 2000; trial++ {
				u, v := gen.Intn(n), gen.Intn(n)
				if seq.IsAncestor(u, v) != bat.IsAncestor(u, v) {
					t.Fatalf("IsAncestor(%d,%d) differs between sequential and batch", u, v)
				}
				if seq.Before(u, v) != bat.Before(u, v) {
					t.Fatalf("Before(%d,%d) differs between sequential and batch", u, v)
				}
			}
		})
	}
}

// TestCloneIndependence checks that edits on the original never leak
// into a clone: the snapshot layer's correctness rests on exactly this.
func TestCloneIndependence(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(30, 11)
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			clone := lab.CloneLabeling()
			wantLen := clone.Len()

			// Edit the original: a child insert and a subtree insert.
			if _, _, err := lab.InsertChildAt(0, 0); err != nil {
				t.Fatal(err)
			}
			gen := rand.New(rand.NewSource(3))
			if _, _, err := lab.InsertSubtree(0, 1, randomShape(gen, 5)); err != nil {
				t.Fatal(err)
			}

			if clone.Len() != wantLen {
				t.Fatalf("clone length changed from %d to %d after edits to the original", wantLen, clone.Len())
			}
			checkAgainstOracle(t, clone)

			// And the other direction: editing the clone must not move
			// the original.
			origLen := lab.Len()
			if _, _, err := clone.InsertChildAt(0, 0); err != nil {
				t.Fatal(err)
			}
			if lab.Len() != origLen {
				t.Fatalf("original length changed after editing the clone")
			}
			checkAgainstOracle(t, lab)

			// Deletions in the original must not resurrect or kill
			// anything in the clone either. The oracle helper assumes a
			// dense id space, so the deletion comes last and only the
			// clone (which never saw it) is re-checked.
			cloneLen := clone.Len()
			if kids := lab.Tree().Kids(0); len(kids) > 2 {
				if _, err := lab.DeleteSubtree(kids[len(kids)-1]); err != nil {
					t.Fatal(err)
				}
			}
			if clone.Len() != cloneLen {
				t.Fatalf("clone length changed from %d to %d after a delete in the original", cloneLen, clone.Len())
			}
			checkAgainstOracle(t, clone)
		})
	}
}

// treeModel is a labeling's structural mirror as a plain [][]int, kept
// by hand beside it.
type treeModel struct {
	kids  [][]int
	alive []bool
}

func newTreeModel(doc *xmltree.Document) *treeModel {
	m := &treeModel{kids: make([][]int, doc.Len()), alive: make([]bool, doc.Len())}
	doc.Walk(func(id int, _ *xmltree.Node, parent, _ int) {
		m.alive[id] = true
		if parent >= 0 {
			m.kids[parent] = append(m.kids[parent], id)
		}
	})
	return m
}

func (m *treeModel) clone() *treeModel {
	c := &treeModel{kids: make([][]int, len(m.kids)), alive: append([]bool(nil), m.alive...)}
	for v, kids := range m.kids {
		c.kids[v] = append([]int(nil), kids...)
	}
	return c
}

// add records shape inserted as the pos-th child of parent under the
// preorder ids, and returns the ids it did not use.
func (m *treeModel) add(parent, pos int, shape *xmltree.Node, ids []int) []int {
	id := ids[0]
	for len(m.kids) <= id {
		m.kids, m.alive = append(m.kids, nil), append(m.alive, false)
	}
	m.alive[id] = true
	m.kids[parent] = append(m.kids[parent][:pos], append([]int{id}, m.kids[parent][pos:]...)...)
	ids = ids[1:]
	if shape != nil {
		for i, c := range shape.Children {
			ids = m.add(id, i, c, ids)
		}
	}
	return ids
}

func (m *treeModel) remove(v int) {
	for p := range m.kids {
		for i, c := range m.kids[p] {
			if c == v {
				m.kids[p] = append(m.kids[p][:i], m.kids[p][i+1:]...)
			}
		}
	}
	var kill func(int)
	kill = func(u int) {
		m.alive[u] = false
		for _, c := range m.kids[u] {
			kill(c)
		}
		m.kids[u] = nil
	}
	kill(v)
}

func (m *treeModel) preOrder(v int, out []int) []int {
	out = append(out, v)
	for _, c := range m.kids[v] {
		out = m.preOrder(c, out)
	}
	return out
}

// live returns the live ids in id order.
func (m *treeModel) live() []int {
	var out []int
	for v, ok := range m.alive {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// checkTreeModel holds every structural read of tr to the model.
func checkTreeModel(t *testing.T, what string, tr *scheme.Tree, m *treeModel) {
	t.Helper()
	if tr.Cap() != len(m.kids) || tr.Len() != len(m.live()) {
		t.Fatalf("%s: Cap %d Len %d, model %d and %d", what, tr.Cap(), tr.Len(), len(m.kids), len(m.live()))
	}
	if tr.Children != nil && len(tr.Children) != tr.Cap() {
		t.Fatalf("%s: Children holds %d lists of %d ids", what, len(tr.Children), tr.Cap())
	}
	for v, want := range m.kids {
		got := tr.Kids(v)
		if tr.Alive(v) != m.alive[v] || !slices.Equal(got, want) {
			t.Fatalf("%s: node %d: alive %v, Kids %v; model %v, %v", what, v, tr.Alive(v), got, m.alive[v], want)
		}
		if tr.Children != nil && !slices.Equal(tr.Children[v], want) {
			t.Fatalf("%s: Children[%d] = %v, model %v", what, v, tr.Children[v], want)
		}
		for k, c := range want {
			if tr.Child(v, k) != c {
				t.Fatalf("%s: Child(%d, %d) = %d, model %d", what, v, k, tr.Child(v, k), c)
			}
			if p, pos, err := tr.SiblingPosition(c); err != nil || p != v || pos != k {
				t.Fatalf("%s: SiblingPosition(%d) = %d, %d, %v; model %d, %d", what, c, p, pos, err, v, k)
			}
		}
		if m.alive[v] {
			last := v
			for len(m.kids[last]) > 0 {
				last = m.kids[last][len(m.kids[last])-1]
			}
			if got := tr.SubtreeLast(v); got != last {
				t.Fatalf("%s: SubtreeLast(%d) = %d, model %d", what, v, got, last)
			}
		}
	}
	if got, want := tr.PreOrder(), m.preOrder(0, nil); !slices.Equal(got, want) {
		t.Fatalf("%s: PreOrder %v, model %v", what, got, want)
	}
}

// TestCloneHistoriesMatchModel runs seeded histories of clones and
// edits over every scheme — sources edited after being cloned, clones
// of clones, subtree deletes and batch inserts — on documents small
// enough that a tree's arena repacks every few edits, once dead runs
// outnumber live ones, and holds every tree of the family to a plain
// [][]int model after every step: an edit on one tree must not move any
// other. A directory chunk describes 256 ids (scheme's chunkShift), so
// beside a 40-node document three inputs cross chunks: a root whose 300
// children lie in two, a 250-node document whose inserts append ids
// across the first chunk's edge, and histories in which every clone is
// followed by an insert on each side of it under one parent, so that
// both trees write the chunk they shared. A fifth puts half its inserts
// under a root of 250 children, whose run passes 255 ids and takes its
// length slot, and deletes the only child of a leaf's parent, emptying
// its run (scheme's TestFillersCounted holds the fillers such runs leave
// behind to the count a repack reads). Every history runs twice: from
// the tree Build makes, whose Children must mirror its runs after every
// step, and from that tree adopted, as Live makes it (scheme's
// TestNewTreeMatchesUnpackAdopt), which takes no clone for 200 steps, so
// that its owner edits in place and moves its runs. Either way the
// family's first clone must pack exact; every input repacks.
func TestCloneHistoriesMatchModel(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			t.Parallel()
			for _, in := range historyInputs {
				repacks := 0
				for seed := int64(1); seed <= 3; seed++ {
					for _, adopted := range []bool{false, true} {
						repacks += cloneHistory(t, entry, in, seed, adopted)
					}
				}
				if repacks == 0 {
					t.Errorf("%s: no tree repacked", in.name)
				}
			}
		})
	}
}

// historyInput is one of TestCloneHistoriesMatchModel's documents, by
// seed; both inserts on each side of every fork, and hub puts half the
// inserts under the root.
type historyInput struct {
	name      string
	doc       func(seed int64) *xmltree.Document
	both, hub bool
}

var historyInputs = []historyInput{
	{"40 nodes", func(seed int64) *xmltree.Document { return randomDoc(40, seed) }, false, false},
	{"fan-out 300", func(seed int64) *xmltree.Document { return wideDoc(300, 30, seed) }, false, false},
	{"250 nodes", func(seed int64) *xmltree.Document { return randomDoc(250, seed) }, false, false},
	{"both sides of a fork", func(seed int64) *xmltree.Document { return randomDoc(40, seed) }, true, false},
	{"root past 255, runs emptied", func(seed int64) *xmltree.Document { return wideDoc(250, 60, seed) }, false, true},
}

// wideDoc is a root of n children, about k of them with a child of
// their own.
func wideDoc(n, k int, seed int64) *xmltree.Document {
	gen := rand.New(rand.NewSource(seed))
	root := xmltree.NewElement("root")
	for i := 0; i < n; i++ {
		root.AppendChild(xmltree.NewElement("e"))
	}
	for i := 0; i < k; i++ {
		root.Children[gen.Intn(n)].AppendChild(xmltree.NewElement("e"))
	}
	return &xmltree.Document{Root: root}
}

// cloneHistory is one seeded history of TestCloneHistoriesMatchModel on
// doc; adopted starts it from an adopted tree. The first 200 steps of an
// adopted history take no clone, so that its owner edits alone long
// enough to move its runs; the other clones early.
// It returns how many times a tree repacked.
func cloneHistory(t *testing.T, entry Entry, in historyInput, seed int64, adopted bool) int {
	input, doc, both := in.name, in.doc(seed), in.both
	lab, err := entry.Build(doc)
	if err != nil {
		t.Fatal(err)
	}
	if adopted {
		lab.Tree().Adopt()
	}
	labs, models := []scheme.Labeling{lab}, []*treeModel{newTreeModel(doc)}
	gen := rand.New(rand.NewSource(seed))
	packs, repacks, inPlace, moves, emptied, most := 0, 0, 0, 0, 0, 0
	lastH, lastParent := 0, 0
	insert := func(l scheme.Labeling, m *treeModel, parent, pos int) {
		id, _, err := l.InsertChildAt(parent, pos)
		if err != nil {
			t.Fatal(err)
		}
		m.add(parent, pos, nil, []int{id})
	}
	for step := 0; step < 300; step++ {
		// Half the steps stay on the last step's tree and parent, so
		// that a tree is edited under the parent whose run it appended
		// last, before and after being cloned.
		sticky := gen.Intn(2) == 0
		if !sticky {
			lastH = gen.Intn(len(labs))
		}
		h := lastH
		l, m := labs[h], models[h]
		live := m.live()
		parent := live[gen.Intn(len(live))]
		if sticky && lastParent < len(m.alive) && m.alive[lastParent] {
			parent = lastParent
		}
		if in.hub && gen.Intn(2) == 0 {
			parent = 0
		}
		lastParent = parent
		pos := gen.Intn(len(m.kids[parent]) + 1)
		owner := len(labs) == 1
		slots, _ := l.Tree().Packing()
		k := gen.Intn(20)
		if adopted && owner && k < 3 && step < 200 {
			k = 3
		}
		switch {
		case k < 3:
			c := l.CloneLabeling()
			if _, dead := c.Tree().Packing(); owner && dead != 0 {
				t.Fatalf("%s seed %d step %d: the family's first clone holds %d dead slots, want an exact pack", input, seed, step, dead)
			}
			cm := m.clone()
			if both {
				insert(l, m, parent, pos)
				insert(c, cm, parent, 0)
			}
			if len(labs) < 6 {
				labs, models = append(labs, c), append(models, cm)
			} else {
				r := gen.Intn(len(labs))
				labs[r], models[r] = c, cm
			}
			if owner {
				packs++
			}
		case k < 11:
			insert(l, m, parent, pos)
		case k < 13:
			shape := randomShape(gen, 1+gen.Intn(6))
			ids, _, err := l.InsertSubtree(parent, pos, shape)
			if err != nil {
				t.Fatal(err)
			}
			m.add(parent, pos, shape, ids)
		case k < 15:
			shapes := []*xmltree.Node{randomShape(gen, 1+gen.Intn(4)), randomShape(gen, 1+gen.Intn(4))}
			ids, _, err := l.InsertSubtrees(parent, pos, shapes)
			if err != nil {
				t.Fatal(err)
			}
			for i, shape := range shapes {
				m.add(parent, pos+i, shape, ids[i])
			}
		default:
			if len(live) < 20 {
				continue
			}
			v := live[1+gen.Intn(len(live)-1)]
			if _, err := l.DeleteSubtree(v); err != nil {
				t.Fatal(err)
			}
			p := l.Tree().Parent(v)
			m.remove(v)
			if len(m.kids[p]) == 0 {
				emptied++
			}
		}
		// An edit only adds to the arena's slots, but for a repack; the
		// owner's edits in place add nothing.
		switch s, _ := l.Tree().Packing(); {
		case k < 3:
		case s < slots:
			repacks++
		case owner && k == 3 && s == slots:
			inPlace++
		case owner && s > slots:
			moves++
		}
		most = max(most, len(m.kids[0]))
		for i := range labs {
			checkTreeModel(t, fmt.Sprintf("%s seed %d adopted %v step %d tree %d", input, seed, adopted, step, i), labs[i].Tree(), models[i])
		}
	}
	t.Logf("%s seed %d, adopted %v: %d packs, %d repacks; owner: %d in place, %d moves",
		input, seed, adopted, packs, repacks, inPlace, moves)
	if packs == 0 {
		t.Errorf("%s seed %d adopted %v: no pack", input, seed, adopted)
	}
	if in.hub && (most < 256 || emptied == 0) {
		t.Errorf("%s seed %d adopted %v: the root's list reached %d ids and %d runs emptied; want more than 255 and one",
			input, seed, adopted, most, emptied)
	}
	if adopted && (inPlace == 0 || moves == 0) {
		t.Errorf("%s seed %d: the owner edited %d runs in place and moved %d; want at least one of each", input, seed, inPlace, moves)
	}
	return repacks
}
