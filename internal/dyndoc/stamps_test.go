package dyndoc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpath/plan"
)

// naive answers path on d with the reference evaluator, past planner
// and cache: what every cached answer is held against.
func naive(d *Document, path string) ([]int, error) {
	q, err := xpath.Parse(path)
	if err != nil {
		return nil, err
	}
	return d.eng.Eval(q)
}

// stampQueries is the pool the read-set tests ask after every step, in
// canonical spelling so that Query and QueryString share entries: every
// axis the parser accepts, * in steps and in predicates, positional and
// path predicates, nested ones included.
var stampQueries = []string{
	"//a", "//b", "//e", "/r/a", "/r/a/b", "//a/b", "//a//c", "//b[1]", "//a[2]/b", "//c/d[2]",
	"//a[./b]", "//a[.//c]/b", "//a[./b[./c]]", "//b[./a/parent::b]",
	"//*", "/r/*", "//a/*[2]", "//a[./*]", "//b[./*/c]/d",
	"//b/preceding-sibling::a", "//b/following-sibling::c", "//d[1]/following-sibling::d",
	"//a/following::b", "//c/parent::a", "//d/ancestor::a",
	"//b/preceding-sibling::*", "//a/following::*", "//c/parent::*/d",
}

var stampNames = []string{"a", "b", "c", "d", "e"}

// stampFragment draws an element tree of mixed names with text in it.
func stampFragment(rng *rand.Rand, depth int) *xmltree.Node {
	n := xmltree.NewElement(stampNames[rng.Intn(len(stampNames))])
	for k := rng.Intn(4); k > 0; k-- {
		if depth == 0 || rng.Intn(3) == 0 {
			n.AppendChild(xmltree.NewText(fmt.Sprint("t", rng.Intn(100))))
		} else {
			n.AppendChild(stampFragment(rng, depth-1))
		}
	}
	return n
}

func stampSeed() *xmltree.Document {
	doc, err := xmltree.ParseString(`<r><a><b/><c>text<d/><d/></c></a><b><a><b><c/></b></a><d/></b><c/><a/></r>`)
	if err != nil {
		panic(err)
	}
	return doc
}

// stampSubject is a document under the differential, live or shared:
// the methods the two have in common, the state they answer from, and a
// way to edit and question a clone of that state which is then dropped.
type stampSubject struct {
	stampDoc
	state func() *Document
	fork  func(fn func(d *Document) error) error
}

type stampDoc interface {
	InsertElement(parent, pos int, name string) (int, int, error)
	InsertTree(parent, pos int, fragment *xmltree.Node) ([]int, int, error)
	DeleteSubtree(id int) (int, error)
	ApplyBatch(edits []Edit) ([]EditResult, error)
	Query(q *xpath.Query) ([]int, error)
	QueryString(path string) ([]int, error)
	Count(path string) (int, error)
	QueryRendered(path string, render func(ids []int) []byte) ([]byte, error)
}

var errForkDropped = errors.New("fork dropped")

func liveSubject(d *Document) stampSubject {
	return stampSubject{d, func() *Document { return d }, func(fn func(*Document) error) error {
		cl, err := d.Clone()
		if err != nil {
			return err
		}
		defer cl.Store().Close()
		return fn(cl)
	}}
}

func sharedSubject(c *Concurrent) stampSubject {
	return stampSubject{c, func() *Document { return c.load().d }, func(fn func(*Document) error) error {
		// An Update whose function fails publishes nothing: the clone it
		// edited, and whatever it asked it, must leave no trace.
		err := c.Update(func(d *Document) error {
			if err := fn(d); err != nil {
				return err
			}
			return errForkDropped
		})
		if err == errForkDropped {
			return nil
		}
		return err
	}}
}

// namesUnder adds to set the element names in the subtree of id.
func namesUnder(d *Document, id int, set map[string]bool) {
	if name := d.NameOf(id); name != "" {
		set[name] = true
	}
	for _, c := range d.lab.Tree().Children[id] {
		namesUnder(d, c, set)
	}
}

func namesIn(n *xmltree.Node, set map[string]bool) {
	if n.Kind == xmltree.Element {
		set[n.Name] = true
	}
	for _, c := range n.Children {
		namesIn(c, set)
	}
}

// randomStampEdit draws an edit valid on d and adds the names it
// touches to touched. Deleted subtrees are drawn among all nodes, text
// included, and so contain other names than their root's.
func randomStampEdit(rng *rand.Rand, d *Document, touched map[string]bool) Edit {
	elems := d.liveElems(nil)
	parent := elems[rng.Intn(len(elems))]
	pos := rng.Intn(len(d.lab.Tree().Children[parent]) + 1)
	switch k := rng.Intn(10); {
	case k < 3 && len(elems) > 12 || len(elems) > 60:
		id := elems[1+rng.Intn(len(elems)-1)] // elems[0] is the root
		if kids := d.lab.Tree().Children[id]; len(kids) > 0 && rng.Intn(4) == 0 {
			id = kids[rng.Intn(len(kids))] // perhaps a text node
		}
		namesUnder(d, id, touched)
		return Edit{Op: OpDeleteSubtree, Node: id}
	case k < 6:
		frag := stampFragment(rng, 2)
		namesIn(frag, touched)
		return Edit{Op: OpInsertTree, Parent: parent, Pos: pos, Fragment: frag}
	default:
		name := stampNames[rng.Intn(len(stampNames))]
		touched[name] = true
		return Edit{Op: OpInsertElement, Parent: parent, Pos: pos, Name: name}
	}
}

// stampChecker asks the whole pool through a subject, by a method drawn
// per question, and holds every answer against the naive evaluator on
// the same state.
type stampChecker struct {
	t      *testing.T
	rng    *rand.Rand
	parsed map[string]*xpath.Query
	plans  map[string]*plan.Plan
	hits   *metrics.Counter
	asked  map[*plan.Cache]map[string]bool // what each cache has been asked, and so holds
	nHits  int
	nAsked int
}

func newStampChecker(t *testing.T, rng *rand.Rand, d *Document) *stampChecker {
	ck := &stampChecker{
		t: t, rng: rng,
		parsed: map[string]*xpath.Query{},
		plans:  map[string]*plan.Plan{},
		hits:   metrics.Default.Counter("xpath_result_cache_hits_total"),
		asked:  map[*plan.Cache]map[string]bool{},
	}
	for _, text := range stampQueries {
		q := xpath.MustParse(text)
		if q.String() != text {
			t.Fatalf("%q is not canonical: %q", text, q.String())
		}
		ck.parsed[text] = q
		ck.plans[text] = plan.For(&d.eng, q)
	}
	return ck
}

// check asks every query of the pool. touched holds the element names
// edited, on this state or any that shares its cache, since the pool
// was last asked: a query that reads none of them must be a hit.
func (ck *stampChecker) check(what string, s stampDoc, d *Document, touched map[string]bool) {
	ck.t.Helper()
	asked := ck.asked[d.cache]
	if asked == nil {
		asked = map[string]bool{}
		ck.asked[d.cache] = asked
	}
	for _, text := range stampQueries {
		want, err := naive(d, text)
		if err != nil {
			ck.t.Fatalf("%s: naive %s: %v", what, text, err)
		}
		before := ck.hits.Value()
		var got []int
		switch ck.rng.Intn(4) {
		case 0:
			got, err = s.QueryString(text)
		case 1:
			got, err = s.Query(ck.parsed[text])
		case 2:
			var n int
			if n, err = s.Count(text); n != len(want) {
				ck.t.Fatalf("%s: Count(%s) = %d, naive has %d", what, text, n, len(want))
			}
			got = want
		case 3:
			var b []byte
			b, err = s.QueryRendered(text, func(ids []int) []byte { return fmt.Append(nil, ids) })
			if string(b) != fmt.Sprint(want) && !(len(want) == 0 && string(b) == "[]") {
				ck.t.Fatalf("%s: QueryRendered(%s) = %s, naive has %v", what, text, b, want)
			}
			got = want
		}
		if err != nil {
			ck.t.Fatalf("%s: %s: %v", what, text, err)
		}
		if !slices.Equal(got, want) {
			ck.t.Fatalf("%s: %s = %v, naive has %v", what, text, got, want)
		}
		hit := ck.hits.Value() == before+1
		ck.nAsked++
		if hit {
			ck.nHits++
		}
		p := ck.plans[text]
		disjoint := p.Reads != nil && !slices.ContainsFunc(p.Reads, func(name string) bool { return touched[name] })
		if asked[text] && disjoint && !hit {
			ck.t.Fatalf("%s: %s reads %v, the edits touched %v, and it was a miss", what, text, p.Reads, touched)
		}
		asked[text] = true
	}
}

// TestStampedCacheDifferential is the differential for the rule the
// result cache lives by — an answer is served again until an edit
// inserts or deletes an element under a name the query reads — over
// every scheme, a live Document and a Concurrent, the slice index and,
// where the scheme has ordered labels, the paged one. A seeded history
// of element and fragment inserts, deletes of subtrees that hold other
// names than their root's, batches, edits that fail, and forks — a
// clone edited, questioned and dropped, followed by an edit of the
// original under the same name — is applied, and after every step the
// pool of stampQueries is asked through the document and held against
// xpath.Engine.Eval on the same state. Hits must occur, and a query
// that reads none of the names a step touched must be one.
//
// It fails under each of: DeleteSubtree giving a token to the deleted
// root's name alone; * recorded as a name in the read set; predicate
// paths left out of the read set; a token counter per document.
func TestStampedCacheDifferential(t *testing.T) {
	paged := func(b store.Binding) (store.Backend, error) {
		return store.OpenPaged(t.TempDir(), pagestore.MinCachePages, b)
	}
	for _, entry := range registry.All() {
		for _, backend := range []string{"slice", "paged"} {
			factory := StoreFactory(nil)
			if backend == "paged" {
				factory = paged
			}
			for _, kind := range []string{"live", "shared"} {
				for seed := int64(1); seed <= 3; seed++ {
					d, err := NewWithStore(stampSeed(), entry.Build, factory)
					if backend == "paged" && errors.Is(err, store.ErrNoOrderedKeys) {
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					t.Run(fmt.Sprintf("%s/%s/%s/seed=%d", entry.Name, backend, kind, seed), func(t *testing.T) {
						s := liveSubject(d)
						if kind == "shared" {
							c, err := NewConcurrentFrom(d)
							if err != nil {
								t.Fatal(err)
							}
							s = sharedSubject(c)
						}
						stampHistory(t, s, seed)
						if err := s.state().Store().Close(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

func stampHistory(t *testing.T, s stampSubject, seed int64) {
	const steps = 48
	rng := rand.New(rand.NewSource(seed))
	ck := newStampChecker(t, rng, s.state())
	ck.check("seed", s, s.state(), nil)
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("step %d", step)
		touched := map[string]bool{}
		switch k := rng.Intn(12); {
		case k == 0: // an edit that fails changes no answer
			if _, err := s.DeleteSubtree(-1); err == nil {
				t.Fatalf("%s: deleting node -1 succeeded", what)
			}
			if _, _, err := s.InsertElement(0, 1<<20, "a"); err == nil {
				t.Fatalf("%s: inserting at position 2^20 succeeded", what)
			}
		case k < 3: // a fork, then the same name on the original
			name := stampNames[rng.Intn(len(stampNames))]
			touched[name] = true
			elems := s.state().liveElems(nil)
			at := rng.Intn(len(elems))
			err := s.fork(func(d *Document) error {
				if _, _, err := d.InsertElement(elems[at], 0, name); err != nil {
					return err
				}
				if rng.Intn(2) == 0 {
					if _, err := d.ApplyBatch([]Edit{randomStampEdit(rng, d, touched)}); err != nil {
						return err
					}
				}
				ck.check(what+", on the fork", d, d, touched)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: fork: %v", what, err)
			}
			if _, _, err := s.InsertElement(elems[(at+1)%len(elems)], 0, name); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case k < 5: // a batch: inserts, then perhaps a delete drawn on the state before them
			d := s.state()
			var batch []Edit
			for n := 1 + rng.Intn(3); n > 0; n-- {
				e := randomStampEdit(rng, d, touched)
				if e.Op == OpDeleteSubtree {
					batch = append(batch, e)
					break
				}
				batch = append([]Edit{e}, batch...)
			}
			if _, err := s.ApplyBatch(batch); err != nil {
				t.Fatalf("%s: batch %+v: %v", what, batch, err)
			}
		default:
			var err error
			switch e := randomStampEdit(rng, s.state(), touched); e.Op {
			case OpInsertElement:
				_, _, err = s.InsertElement(e.Parent, e.Pos, e.Name)
			case OpInsertTree:
				_, _, err = s.InsertTree(e.Parent, e.Pos, e.Fragment)
			case OpDeleteSubtree:
				_, err = s.DeleteSubtree(e.Node)
			}
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		ck.check(what, s, s.state(), touched)
	}
	t.Logf("%d of %d questions were hits", ck.nHits, ck.nAsked)
	if 4*ck.nHits < ck.nAsked {
		t.Errorf("%d of %d questions were hits: the cache is not doing its work", ck.nHits, ck.nAsked)
	}
}

// TestStampedCacheSharedLineages: states that share one cache answer
// each for itself, whatever the order they are asked in — two clones of
// one document edited differently under the same names, beside their
// origin; a Concurrent before and after a Reset to a fresh document,
// which takes the cache over; and one that applies, and one that fails
// to apply, a follower's replay of a batch run through Update.
func TestStampedCacheSharedLineages(t *testing.T) {
	build := containment.Build(keys.VCDBS())
	ask := func(what string, ds ...*Document) {
		t.Helper()
		for round := 0; round < 2; round++ {
			for _, d := range ds {
				for _, q := range stampQueries {
					want, err := naive(d, q)
					if err != nil {
						t.Fatal(err)
					}
					if got, err := d.QueryString(q); err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s: %s = %v, %v; its own state has %v", what, q, got, err, want)
					}
				}
			}
		}
	}

	origin, err := New(stampSeed(), build)
	if err != nil {
		t.Fatal(err)
	}
	ask("origin", origin)
	left, err := origin.Clone()
	if err != nil {
		t.Fatal(err)
	}
	right, err := origin.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if left.cache != origin.cache || right.cache != origin.cache {
		t.Fatal("a clone does not share its origin's cache")
	}
	elems := origin.liveElems(nil)
	for i, name := range []string{"a", "b", "c", "d", "b", "a"} {
		// The same number of edits under the same names on both sides, in
		// different places; per-document counters would agree on every token.
		if _, _, err := left.InsertElement(elems[i], 0, name); err != nil {
			t.Fatal(err)
		}
		if _, _, err := right.InsertElement(elems[i+3], 0, name); err != nil {
			t.Fatal(err)
		}
		ask(fmt.Sprintf("after %d edits a side", i+1), left, right, origin)
	}
	if _, err := left.DeleteSubtree(elems[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := right.DeleteSubtree(elems[len(elems)-1]); err != nil {
		t.Fatal(err)
	}
	ask("after a delete a side", right, origin, left)

	c, err := NewConcurrent(stampSeed(), build)
	if err != nil {
		t.Fatal(err)
	}
	cache := c.load().d.cache
	ask("before Reset", c.load().d)
	other, err := xmltree.ParseString(`<r><b><a/><a><c/></a></b><a><d/><b/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(other, build)
	if err != nil {
		t.Fatal(err)
	}
	before := c.load().d
	if err := c.Reset(fresh); err != nil {
		t.Fatal(err)
	}
	if c.load().d.cache != cache {
		t.Fatal("Reset left the Concurrent with another cache")
	}
	ask("after Reset", c.load().d, before)

	replay := func(fail error) error {
		return c.Update(func(d *Document) error {
			edits := []Edit{
				{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "a"},
				{Op: OpInsertTree, Parent: 0, Pos: 1, Fragment: stampFragment(rand.New(rand.NewSource(1)), 2)},
			}
			if _, err := d.ApplyBatch(edits); err != nil {
				return err
			}
			ask("inside a replay", d)
			return fail
		})
	}
	divergent := errors.New("divergent batch")
	if err := replay(divergent); err != divergent {
		t.Fatalf("failed replay: %v", err)
	}
	ask("after a failed replay", c.load().d)
	if err := replay(nil); err != nil {
		t.Fatal(err)
	}
	ask("after a replay", c.load().d, before)
	if n, err := c.Count("//a"); err != nil || n != 4 {
		t.Fatalf("//a = %d, %v after Reset and one replay; want 4", n, err)
	}
}
