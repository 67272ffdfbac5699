package plan

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prefix"
	"repro/internal/registry"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// randomNamedDoc builds a random document over a small vocabulary so
// that queries hit (same shape as the xpath oracle fuzzer).
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

// randomQuery builds a random query; spineOnly restricts it to the
// child/descendant fragment the planner reorders.
func randomQuery(gen *rand.Rand, spineOnly bool) string {
	names := []string{"a", "b", "c", "d", "*", "root"}
	steps := 1 + gen.Intn(4)
	q := ""
	for i := 0; i < steps; i++ {
		sep := "/"
		if gen.Intn(3) == 0 {
			sep = "//"
		}
		axis := ""
		if !spineOnly && i > 0 && sep == "/" {
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

func testEngine(t *testing.T, doc *xmltree.Document) *xpath.Engine {
	t.Helper()
	lab, err := prefix.New(prefix.VCDBSCodec(), doc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := xpath.NewEngine(doc, lab)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func normalize(ids []int) []int {
	if len(ids) == 0 {
		return []int{}
	}
	return ids
}

// forcedPlans enumerates every strategy/anchor combination that is
// valid for q, so the executors are exercised even where the cost
// model would never choose them.
func forcedPlans(q *xpath.Query) []*Plan {
	plans := []*Plan{{Query: q, Text: q.String(), Strategy: LeftRight}}
	if !spineForTest(q) {
		return plans
	}
	prefixPredFree := true
	for a := 1; a < len(q.Steps); a++ {
		if len(q.Steps[a-1].Preds) > 0 {
			prefixPredFree = false
		}
		if prefixPredFree {
			plans = append(plans, &Plan{Query: q, Text: q.String(), Strategy: PathCheck, Anchor: a})
		}
	}
	return plans
}

func spineForTest(q *xpath.Query) bool {
	for _, s := range q.Steps {
		if s.Axis != xpath.Child && s.Axis != xpath.Descendant {
			return false
		}
	}
	return true
}

// TestStrategiesMatchNaive fuzzes random documents and spine queries
// and checks every forced strategy/anchor combination against the
// naive engine — the Ref oracle the xpath package already proves
// correct against a structure-walking evaluator.
func TestStrategiesMatchNaive(t *testing.T) {
	gen := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		doc := randomNamedDoc(gen, 30+gen.Intn(120))
		eng := testEngine(t, doc)
		for qi := 0; qi < 20; qi++ {
			qs := randomQuery(gen, true)
			q, err := xpath.Parse(qs)
			if err != nil {
				t.Fatalf("generated bad query %q: %v", qs, err)
			}
			want, err := eng.Eval(q)
			if err != nil {
				t.Fatalf("naive %q: %v", qs, err)
			}
			for _, p := range forcedPlans(q) {
				got, err := p.Eval(eng)
				if err != nil {
					t.Fatalf("%s/%d %q: %v", p.Strategy, p.Anchor, qs, err)
				}
				if !reflect.DeepEqual(normalize(got), normalize(want)) {
					t.Fatalf("trial %d %s anchor=%d: %q: plan %v, naive %v\ndoc: %s",
						trial, p.Strategy, p.Anchor, qs, got, want, doc)
				}
			}
		}
	}
}

// TestPlannerMatchesNaiveAllSchemes runs the planner-chosen plan —
// leftright for every query off the child/descendant spine — against
// the naive engine under every registered labeling scheme.
func TestPlannerMatchesNaiveAllSchemes(t *testing.T) {
	for _, ent := range registry.All() {
		ent := ent
		t.Run(ent.Name, func(t *testing.T) {
			gen := rand.New(rand.NewSource(int64(len(ent.Name))))
			for trial := 0; trial < 8; trial++ {
				doc := randomNamedDoc(gen, 30+gen.Intn(90))
				lab, err := ent.Build(doc)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := xpath.NewEngine(doc, lab)
				if err != nil {
					t.Fatal(err)
				}
				cache := NewCache()
				for qi := 0; qi < 15; qi++ {
					qs := randomQuery(gen, false)
					q, err := xpath.Parse(qs)
					if err != nil {
						t.Fatalf("generated bad query %q: %v", qs, err)
					}
					want, err := eng.Eval(q)
					if err != nil {
						t.Fatalf("naive %q: %v", qs, err)
					}
					got, err := For(eng, q).Eval(eng)
					if err != nil {
						t.Fatalf("planned %q: %v", qs, err)
					}
					if !reflect.DeepEqual(normalize(got), normalize(want)) {
						t.Fatalf("trial %d: %q: plan %v, naive %v\ndoc: %s", trial, qs, got, want, doc)
					}
					// Twice through the cache: a miss then a hit, both
					// equal to the oracle.
					for pass := 0; pass < 2; pass++ {
						got, err := cache.Eval(eng, 1, q)
						if err != nil {
							t.Fatalf("cached %q: %v", qs, err)
						}
						if !reflect.DeepEqual(normalize(got), normalize(want)) {
							t.Fatalf("trial %d pass %d: %q: cache %v, naive %v", trial, pass, qs, got, want)
						}
					}
				}
			}
		})
	}
}

// TestPathCheckMatchesNaiveLargeDoc checks a Q6-shaped pathcheck plan
// against the naive engine on a 49 152-element document, where the
// * step's candidate list is the whole document.
func TestPathCheckMatchesNaiveLargeDoc(t *testing.T) {
	gen := rand.New(rand.NewSource(9))
	doc := randomNamedDoc(gen, 6*8192)
	eng := testEngine(t, doc)
	q, err := xpath.Parse("/root/*//b")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Plan{Query: q, Text: q.String(), Strategy: PathCheck, Anchor: 2}).Eval(eng)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Errorf("pathcheck = %d matches, naive = %d", len(got), len(want))
	}
}

// tokens is an xpath.Versions a test moves by hand.
type tokens map[string]uint64

func (v tokens) NameToken(name string) uint64 { return v[name] }

// TestCacheGenerations pins the invalidation rule: a result serves
// only where the engine computes the stamp it was stored with — the
// caller's generation for an engine without versions or a query that
// reads every element, the latest token among the names and child lists
// the query reads otherwise — and the bounds evict.
func TestCacheGenerations(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	doc := randomNamedDoc(gen, 80)
	eng := testEngine(t, doc)
	q, err := xpath.Parse("//a")
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	hits, misses := mResultHits.Value(), mResultMisses.Value()
	got, err := c.Eval(eng, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("miss path: got %v want %v", got, want)
	}
	if mResultMisses.Value() != misses+1 {
		t.Fatalf("first eval did not count as a miss")
	}
	again, err := c.Eval(eng, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("hit path: got %v want %v", again, want)
	}
	if mResultHits.Value() != hits+1 {
		t.Fatalf("second eval at same generation did not hit")
	}
	// A different generation is a miss even with an entry present.
	if _, err := c.Eval(eng, 2, q); err != nil {
		t.Fatal(err)
	}
	if mResultMisses.Value() != misses+2 {
		t.Fatalf("generation change did not miss")
	}
	// With versions the generation stops counting, except for a query
	// that reads every element: the entry serves until a name or child
	// list it reads moves.
	vers, last := tokens{"a": 5, "b": 9, "c": 2}, uint64(9)
	veng := testEngine(t, doc).Versioned(vers)
	c = NewCache()
	for _, step := range []struct {
		query string
		gen   uint64
		move  string
		hit   bool
	}{
		{"//a", 1, "", false},
		{"//a", 2, "", true}, // the generation alone means nothing
		{"//a", 2, "b", true},
		{"//a", 2, "a", false},
		{"//a[./c]", 2, "", false},
		{"//a[./c]", 2, "b", true},
		{"//a[./c]", 2, "c", false}, // the predicate's path is read
		{"//a[./c]", 2, "", true},
		{"//a", 2, "", true}, // //a did not read c
		{"//a/*", 2, "", false},
		{"//a/*", 3, "", true}, // a * child step reads the child lists of a, not the generation
		{"//a/*", 3, "b", true},
		{"//a/*", 3, "/b", true},
		{"//a/*", 3, "/a", false}, // a child inserted under an a
		{"//a/*", 3, "", true},
		{"//a/*", 3, "a", false},
		{"//*", 3, "", false},
		{"//*", 3, "a", true}, // //* reads every element: its stamp is the generation
		{"//*", 4, "", false},
		{"//*", 4, "", true},
	} {
		if step.move != "" { // as an edit does: a token larger than any before
			last++
			vers[step.move] = last
		}
		hits := mResultHits.Value()
		got, err := c.EvalString(veng, step.gen, step.query)
		if want, _ := veng.Eval(xpath.MustParse(step.query)); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: got %v, %v; want %v", step, got, err, want)
		}
		if hit := mResultHits.Value() == hits+1; hit != step.hit {
			t.Fatalf("%+v: hit = %v", step, hit)
		}
	}
	// Eviction: bound of one entry, two distinct queries.
	small := NewCacheBounds(1, 1<<20)
	q2, err := xpath.Parse("//b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Eval(eng, 1, q); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Eval(eng, 1, q2); err != nil {
		t.Fatal(err)
	}
	small.mu.RLock()
	n := len(small.results)
	small.mu.RUnlock()
	if n > 1 {
		t.Fatalf("bounded cache holds %d entries, want <= 1", n)
	}
}

// TestExplainReport pins the report fields EXPLAIN renders from.
func TestExplainReport(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	doc := randomNamedDoc(gen, 60)
	eng := testEngine(t, doc)
	q, err := xpath.Parse("//a/b")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	rec, err := c.Explain(eng, 7, q)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cache != "miss" || !reflect.DeepEqual(rec.Reads, []string{"a", "b"}) {
		t.Errorf("first Explain: cache=%q reads=%v", rec.Cache, rec.Reads)
	}
	want, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Matches != len(want) {
		t.Errorf("Matches = %d, want %d", rec.Matches, len(want))
	}
	if len(rec.Steps) != 2 {
		t.Fatalf("Steps = %d, want 2", len(rec.Steps))
	}
	if rec.Steps[1].Actual != len(want) {
		t.Errorf("last step actual = %d, want %d", rec.Steps[1].Actual, len(want))
	}
	r2, err := c.Explain(eng, 7, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Errorf("second Explain: cache=%q, want hit", r2.Cache)
	}
	if r3, err := c.Explain(eng, 8, q); err != nil || r3.Cache != "miss" {
		t.Errorf("Explain at another generation: %+v, %v", r3, err)
	}
	// A * step reads the child lists of its parent, "/X", where that
	// parent is known, a predicate path's starting from its own step;
	// parent::* adds nothing; a * whose parent is * or unknown reads
	// every element.
	for text, reads := range map[string][]string{
		"//a[./b/c]/preceding-sibling::d[2]": {"a", "b", "c", "d"},
		"//a[./*]/b":                         {"/a", "a", "b"},
		"/root/*":                            {"/root", "root"},
		"//c/parent::*/d":                    {"c", "d"},
		"/r/b/preceding-sibling::*":          {"/r", "b", "r"},
		"/r/*/following-sibling::*":          {"/r", "r"},
		"//a/b/following-sibling::*[1]":      {"/a", "a", "b"},
		"//a/b[./following-sibling::*]":      {"/a", "a", "b"},
		"//b[./*/*]":                         nil,
		"//b/preceding-sibling::*":           nil,
		"//c/parent::*[2]":                   nil,
		"//a/following::*":                   nil,
		"/*":                                 nil,
		"//*":                                nil,
	} {
		p := For(eng, xpath.MustParse(text))
		if !reflect.DeepEqual(p.Reads, reads) {
			t.Errorf("%s reads %v, want %v", text, p.Reads, reads)
		}
		if rec, err := NewCache().Explain(eng, 0, p.Query); err != nil || !strings.Contains(rec.String(), "\nreads: "+cmp.Or(strings.Join(reads, ", "), "*")+"\n") {
			t.Errorf("%s explains as\n%v(%v)", text, rec, err)
		}
	}
}

// TestExplainCountsNothing pins Cache.Explain's promise that
// diagnostics do not skew the cache metrics: an Explain of a query
// whose plan and result are cached, and of one whose are not, moves
// none of the four plan and result hit/miss counters.
func TestExplainCountsNothing(t *testing.T) {
	eng := testEngine(t, randomNamedDoc(rand.New(rand.NewSource(5)), 60))
	c := NewCache()
	if _, err := c.EvalString(eng, 1, "//a/b"); err != nil {
		t.Fatal(err)
	}
	counters := func() [4]int64 {
		return [4]int64{mPlanHits.Value(), mPlanMisses.Value(), mResultHits.Value(), mResultMisses.Value()}
	}
	before := counters()
	for _, text := range []string{"//a/b", "//b/a", "//b/a"} {
		if _, err := c.Explain(eng, 1, xpath.MustParse(text)); err != nil {
			t.Fatal(err)
		}
	}
	if after := counters(); after != before {
		t.Errorf("Explain moved the plan hits, plan misses, result hits and result misses from %v to %v", before, after)
	}
}

// TestLeftRightAllocsMatchEngine pins that a leftright plan allocates
// exactly what Engine.Eval does for the same query, on the spine and
// off it: the per-step callback that fills EXPLAIN's actuals costs
// nothing when EXPLAIN is off.
func TestLeftRightAllocsMatchEngine(t *testing.T) {
	eng := testEngine(t, randomNamedDoc(rand.New(rand.NewSource(5)), 200))
	for _, text := range []string{"//a[./b]/c", "//a/b[2]/preceding-sibling::c"} {
		q := xpath.MustParse(text)
		p := For(eng, q)
		if p.Strategy != LeftRight {
			t.Fatalf("%s plans %s, want leftright", text, p.Strategy)
		}
		if ids, err := p.Eval(eng); err != nil || len(ids) == 0 {
			t.Fatalf("%s: %v, %v; want some matches", text, ids, err)
		}
		planned := testing.AllocsPerRun(50, func() { _, _ = p.Eval(eng) })
		naive := testing.AllocsPerRun(50, func() { _, _ = eng.Eval(q) })
		if planned != naive {
			t.Errorf("%s: Plan.Eval makes %v allocations, Engine.Eval %v", text, planned, naive)
		}
	}
}
