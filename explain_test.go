package dynxml

import (
	"errors"
	"fmt"
	"testing"
)

// TestHandleExplainGolden pins Handle.Explain's rendered output — the
// exact text cmd/dynxml query -explain prints — across the planner's
// leftright and fallback strategies, the result cache of a concurrent
// handle (miss, then hit; still a hit after an edit under a name the
// query does not read, a miss after one it does) and of a plain handle.
// The queries are chosen so the strategy choice cannot depend on the
// process-wide depth histograms (single step, or predicates blocking
// pathcheck): the output is a pure function of the document.
func TestHandleExplainGolden(t *testing.T) {
	const seed = `<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>`
	h, err := Open(seed, WithConcurrent())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.InsertElement(0, 0, "pamphlet"); err != nil {
		t.Fatal(err)
	}
	goldens := []struct {
		query string
		want  string
	}{
		{"//book", `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=miss generation=1
reads: book
parallelism: 1
step 1: //book est=3 actual=3 phase=scan
matches: 3
`},
		{"/library[1]/shelf[./book]/book", `EXPLAIN /library[1]/shelf[./book]/book
strategy: leftright
cost: chosen=34 leftright=34
cache: result=miss generation=1
reads: book, library, shelf
parallelism: 1
step 1: /library[1] est=1 actual=1 phase=scan
step 2: /shelf[./book] est=2 actual=2 phase=join
step 3: /book est=3 actual=3 phase=join
matches: 3
`},
		{"//book/parent::shelf", `EXPLAIN //book/parent::shelf
strategy: fallback-axes
cache: result=miss generation=1
reads: book, shelf
parallelism: 1
step 1: //book est=3 actual=- phase=fallback
step 2: /parent::shelf est=2 actual=2 phase=fallback
matches: 2
`},
		// Same query again: the result cache holds it.
		{"//book", `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=hit generation=1
reads: book
parallelism: 1
step 1: //book est=3 actual=3 phase=scan
matches: 3
`},
	}
	for _, g := range goldens {
		got, err := h.Explain(g.query)
		if err != nil {
			t.Fatalf("Explain(%q): %v", g.query, err)
		}
		if got != g.want {
			t.Errorf("Explain(%q) =\n%s\nwant\n%s", g.query, got, g.want)
		}
	}

	// The answer outlives an edit that cannot change it — an x among
	// the books leaves //book a hit at generation 2 — and no other: a
	// fourth book makes it a miss at generation 3. //* reads every
	// element and misses after either. (The costs are those of the plan,
	// compiled when the query was first seen.)
	const star = `EXPLAIN //*
strategy: leftright
cost: chosen=8 leftright=8
cache: result=miss generation=%d
reads: *
parallelism: 1
step 1: //* est=%d actual=%[2]d phase=scan
matches: %[2]d
`
	edits := []struct {
		name             string
		book, everything string
	}{
		{"", "", fmt.Sprintf(star, 1, 7)},
		{"x", `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=hit generation=2
reads: book
parallelism: 1
step 1: //book est=3 actual=3 phase=scan
matches: 3
`, fmt.Sprintf(star, 2, 8)},
		{"book", `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=miss generation=3
reads: book
parallelism: 1
step 1: //book est=4 actual=4 phase=scan
matches: 4
`, fmt.Sprintf(star, 3, 9)},
	}
	for _, e := range edits {
		if e.name != "" {
			if _, _, err := h.InsertElement(1, 1, e.name); err != nil {
				t.Fatal(err)
			}
			if got, err := h.Explain("//book"); err != nil || got != e.book {
				t.Errorf("Explain(//book) after inserting <%s> =\n%s(%v)\nwant\n%s", e.name, got, err, e.book)
			}
		}
		if got, err := h.Explain("//*"); err != nil || got != e.everything {
			t.Errorf("Explain(//*) after inserting <%s> =\n%s(%v)\nwant\n%s", e.name, got, err, e.everything)
		}
	}

	// A plain handle has no generation; its cache works the same way.
	p, err := Open(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"miss", "hit"} {
		got, err := p.Explain("//book")
		if err != nil {
			t.Fatal(err)
		}
		want := `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=` + want + `
reads: book
parallelism: 1
step 1: //book est=3 actual=3 phase=scan
matches: 3
`
		if got != want {
			t.Errorf("plain-handle Explain =\n%s\nwant\n%s", got, want)
		}
		if _, _, err := p.InsertElement(0, 0, "x"); err != nil {
			t.Fatal(err)
		}
	}

	// Closed handles refuse.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Explain("//book"); !errors.Is(err, ErrClosed) {
		t.Errorf("Explain on closed handle: %v, want ErrClosed", err)
	}
}
