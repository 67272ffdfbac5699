package registry

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// randomDoc builds a random document of about n nodes with the given
// seed.
func randomDoc(n int, seed int64) *xmltree.Document {
	gen := rand.New(rand.NewSource(seed))
	root := xmltree.NewElement("root")
	nodes := []*xmltree.Node{root}
	for len(nodes) < n {
		p := nodes[gen.Intn(len(nodes))]
		var child *xmltree.Node
		if gen.Intn(5) == 0 {
			child = xmltree.NewText("t")
		} else {
			child = xmltree.NewElement("e")
		}
		p.AppendChild(child)
		if child.Kind == xmltree.Element {
			nodes = append(nodes, child)
		}
	}
	return &xmltree.Document{Root: root}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("V-CDBS-Containment"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names/All mismatch")
	}
}

// TestConformance verifies, for every scheme, that the label-derived
// predicates agree with the structural truth on a random document.
func TestConformance(t *testing.T) {
	doc := randomDoc(120, 7)
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, lab)
		})
	}
}

// checkAgainstOracle compares every predicate with the Tree oracle.
func checkAgainstOracle(t *testing.T, lab scheme.Labeling) {
	t.Helper()
	tr := lab.Tree()
	n := tr.Len()
	order := tr.PreOrder()
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	gen := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4000; trial++ {
		u, v := gen.Intn(n), gen.Intn(n)
		if u == v {
			continue
		}
		if got, want := lab.IsAncestor(u, v), tr.IsAncestorStructural(u, v); got != want {
			t.Fatalf("IsAncestor(%d,%d) = %v, want %v", u, v, got, want)
		}
		if got, want := lab.IsParent(u, v), tr.Parent(v) == u; got != want {
			t.Fatalf("IsParent(%d,%d) = %v, want %v", u, v, got, want)
		}
		if got, want := lab.IsSibling(u, v), tr.Parent(u) != -1 && tr.Parent(u) == tr.Parent(v); got != want {
			t.Fatalf("IsSibling(%d,%d) = %v, want %v", u, v, got, want)
		}
		if got, want := lab.Before(u, v), pos[u] < pos[v]; got != want {
			t.Fatalf("Before(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
	for v := 0; v < n; v++ {
		if got, want := lab.Level(v), tr.Depth(v); got != want {
			t.Fatalf("Level(%d) = %d, want %d", v, got, want)
		}
	}
	if lab.Len() != n {
		t.Fatalf("Len = %d, want %d", lab.Len(), n)
	}
	if lab.TotalLabelBits() <= 0 {
		t.Fatalf("TotalLabelBits = %d", lab.TotalLabelBits())
	}
}

// TestConformanceAfterInsertions re-checks predicates after a batch of
// random insertions on every scheme.
func TestConformanceAfterInsertions(t *testing.T) {
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(60, 11)
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			gen := rand.New(rand.NewSource(3))
			for i := 0; i < 60; i++ {
				tr := lab.Tree()
				parent := gen.Intn(tr.Len())
				pos := gen.Intn(len(tr.Children[parent]) + 1)
				if _, _, err := lab.InsertChildAt(parent, pos); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			checkAgainstOracle(t, lab)
		})
	}
}

// TestDynamicSchemesNeverRelabel asserts the Table 4 zeros: dynamic
// schemes report no re-labeled nodes on single insertions anywhere.
// (Prime reports SC recalculations instead, which are expected.)
func TestDynamicSchemesNeverRelabel(t *testing.T) {
	for _, entry := range All() {
		if !entry.Dynamic || entry.Name == "Prime" {
			continue
		}
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			doc := randomDoc(80, 23)
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			gen := rand.New(rand.NewSource(5))
			for i := 0; i < 150; i++ {
				tr := lab.Tree()
				parent := gen.Intn(tr.Len())
				pos := gen.Intn(len(tr.Children[parent]) + 1)
				_, relabeled, err := lab.InsertChildAt(parent, pos)
				if err != nil {
					t.Fatal(err)
				}
				if relabeled != 0 {
					t.Fatalf("insert %d relabeled %d nodes", i, relabeled)
				}
			}
		})
	}
}

// TestStaticSchemesRelabel asserts that the static schemes do
// re-label when squeezed.
func TestStaticSchemesRelabel(t *testing.T) {
	for _, name := range []string{"V-Binary-Containment", "F-Binary-Containment", "DeweyID(UTF8)-Prefix", "Binary-String-Prefix"} {
		entry, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			doc, err := xmltree.ParseString("<r><a/><b/><c/></r>")
			if err != nil {
				t.Fatal(err)
			}
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			// Insert before the second child: something after it must
			// be re-labeled.
			_, relabeled, err := lab.InsertChildAt(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if relabeled == 0 {
				t.Error("static scheme reported 0 re-labels for a squeezed insert")
			}
		})
	}
}

// TestInsertErrors checks the error paths shared by the labelings.
func TestInsertErrors(t *testing.T) {
	doc, err := xmltree.ParseString("<r><a/></r>")
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range All() {
		lab, err := entry.Build(doc)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if _, _, err := lab.InsertChildAt(-1, 0); err == nil {
			t.Errorf("%s: bad parent accepted", entry.Name)
		}
		if _, _, err := lab.InsertChildAt(0, 99); err == nil {
			t.Errorf("%s: bad position accepted", entry.Name)
		}
		if _, _, err := scheme.InsertSiblingBefore(lab, 0); err == nil {
			t.Errorf("%s: sibling-before-root accepted", entry.Name)
		}
		if !errors.Is(err, nil) {
			_ = err
		}
	}
}

// TestNamesMatchPaperConventions ensures containment schemes are
// suffixed and prefix schemes named per the figures.
func TestNamesMatchPaperConventions(t *testing.T) {
	doc := randomDoc(20, 1)
	for _, entry := range All() {
		lab, err := entry.Build(doc)
		if err != nil {
			t.Fatal(err)
		}
		if lab.Name() != entry.Name {
			t.Errorf("labeling name %q != registry name %q", lab.Name(), entry.Name)
		}
		if entry.Name != "Prime" && !strings.Contains(entry.Name, "-Prefix") && !strings.Contains(entry.Name, "-Containment") {
			t.Errorf("unconventional name %q", entry.Name)
		}
	}
}

// contractState is what a refused insert must leave as it was.
type contractState struct {
	len, cap, longest int
	labelBytes        int64
	labels            string
}

func stateOf(t *testing.T, lab scheme.Labeling) contractState {
	t.Helper()
	s := contractState{len: lab.Len(), cap: lab.Tree().Cap(), longest: lab.LongestLabel(), labelBytes: lab.LabelBytes()}
	for _, v := range lab.Tree().PreOrder() {
		b, err := lab.MarshalLabel(v)
		if err != nil {
			t.Fatal(err)
		}
		s.labels += string(b) + "|"
	}
	return s
}

// TestLabelingContract holds every scheme to the part of
// scheme.Labeling a served document relies on, on a random document
// and again after random inserts and deletes: ordered labels either
// refused for every live node or agreeing with Before and distinct,
// LongestLabel the longest one ever handed out, LabelBytes positive,
// LimitLabel refusing the crossing insert — of a node, a fragment and a
// run of fragments — with nothing changed, on a clone as well, and inert
// under a scheme without ordered labels.
func TestLabelingContract(t *testing.T) {
	ordered := 0
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			lab, err := entry.Build(randomDoc(60, 13))
			if err != nil {
				t.Fatal(err)
			}
			isOrdered := scheme.Ordered(lab)
			if isOrdered {
				ordered++
			}
			longest := 0 // of every ordered label seen, dead nodes' included
			check := func() {
				t.Helper()
				live := lab.Tree().PreOrder()
				labels := make([][]byte, len(live))
				for i, v := range live {
					labels[i], err = lab.AppendOrderedLabel(nil, v)
					if !isOrdered {
						if !errors.Is(err, scheme.ErrNoOrderedLabels) {
							t.Fatalf("AppendOrderedLabel(%d) = %v, want ErrNoOrderedLabels as for the root", v, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("AppendOrderedLabel(%d): %v", v, err)
					}
					longest = max(longest, len(labels[i]))
				}
				for i, u := range live {
					for j, v := range live {
						if !isOrdered || i == j {
							continue
						}
						c := bytes.Compare(labels[i], labels[j])
						if c == 0 {
							t.Fatalf("nodes %d and %d share the ordered label %x", u, v, labels[i])
						}
						if (c < 0) != lab.Before(u, v) {
							t.Fatalf("ordered labels of %d and %d compare %d, Before = %v", u, v, c, lab.Before(u, v))
						}
					}
				}
				if got := lab.LongestLabel(); got != longest {
					t.Fatalf("LongestLabel = %d, longest ordered label handed out %d", got, longest)
				}
				if lab.LabelBytes() <= 0 {
					t.Fatalf("LabelBytes = %d", lab.LabelBytes())
				}
			}
			check()

			gen := rand.New(rand.NewSource(29))
			for i := 0; i < 80; i++ {
				live := lab.Tree().PreOrder()
				parent := live[gen.Intn(len(live))]
				pos := gen.Intn(len(lab.Tree().Children[parent]) + 1)
				switch v := live[gen.Intn(len(live))]; {
				case i%8 == 7 && v != 0:
					_, err = lab.DeleteSubtree(v)
				case i%8 == 3:
					_, _, err = lab.InsertSubtrees(parent, pos, []*xmltree.Node{randomShape(gen, 3), xmltree.NewElement("s")})
				case i%8 == 5:
					_, _, err = lab.InsertSubtree(parent, pos, randomShape(gen, 4))
				default:
					_, _, err = lab.InsertChildAt(parent, pos)
				}
				if err != nil {
					t.Fatalf("edit %d: %v", i, err)
				}
				// Every step, so that a label handed out and deleted
				// before the next check is still counted.
				for _, v := range lab.Tree().PreOrder() {
					if b, err := lab.AppendOrderedLabel(nil, v); err == nil {
						longest = max(longest, len(b))
					}
				}
			}
			check()

			// The limit, pressed by inserts into one gap.
			limit := lab.LongestLabel() + 2
			lab.LimitLabel(limit)
			inserts := []func(l scheme.Labeling) error{
				func(l scheme.Labeling) error { _, _, err := l.InsertChildAt(0, 0); return err },
				func(l scheme.Labeling) error {
					_, _, err := l.InsertSubtree(0, 0, randomShape(gen, 3))
					return err
				},
				func(l scheme.Labeling) error {
					_, _, err := l.InsertSubtrees(0, 0, []*xmltree.Node{xmltree.NewElement("s"), randomShape(gen, 3)})
					return err
				},
			}
			if !isOrdered {
				for i := 0; i < 40; i++ {
					if err := inserts[i%len(inserts)](lab); err != nil {
						t.Fatalf("LimitLabel(%d) is not inert: %v", limit, err)
					}
				}
				check()
				return
			}
			for i := 0; ; i++ {
				if i == 20000 {
					t.Fatalf("no insert refused under LimitLabel(%d); longest label %d", limit, lab.LongestLabel())
				}
				if err = inserts[0](lab); err != nil {
					break
				}
			}
			before := stateOf(t, lab)
			clone := lab.CloneLabeling()
			for k, insert := range inserts {
				for _, l := range []scheme.Labeling{lab, clone} {
					if err := insert(l); !errors.Is(err, scheme.ErrLabelTooLong) {
						t.Fatalf("insert kind %d past the limit: err = %v, want ErrLabelTooLong", k, err)
					}
					if after := stateOf(t, l); after != before {
						t.Fatalf("refused insert kind %d changed the labeling: %+v, was %+v", k, after, before)
					}
				}
			}
			if before.longest > limit {
				t.Fatalf("LongestLabel %d over the limit %d", before.longest, limit)
			}
			longest = before.longest
			check()
			lab.LimitLabel(0)
			if err := inserts[0](lab); err != nil {
				t.Fatalf("insert after the limit was lifted: %v", err)
			}
			if err := inserts[0](clone); !errors.Is(err, scheme.ErrLabelTooLong) {
				t.Fatalf("lifting the original's limit lifted the clone's: %v", err)
			}
		})
	}
	if ordered != 3 {
		t.Fatalf("%d schemes have ordered labels, want 3 (V-CDBS-, F-CDBS-, QED-Containment)", ordered)
	}
}
