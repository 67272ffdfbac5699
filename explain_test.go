package dynxml

import (
	"errors"
	"fmt"
	"testing"
)

// TestHandleExplainGolden pins Handle.Explain's rendered output — the
// exact text cmd/dynxml query -explain prints — across the planner's
// leftright and pathcheck strategies, the result cache of a
// concurrent handle (miss, then hit; still a hit after an edit under a
// name or child list the query does not read, a miss after one it
// does) and of a plain handle. The planner's statistics are the
// document's candidate counts and a constant depth, so the output is a
// pure function of the document.
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
step 1: //book est=3 actual=3 phase=scan
matches: 3
`},
		{"/library[1]/shelf[./book]/book", `EXPLAIN /library[1]/shelf[./book]/book
strategy: leftright
cost: chosen=34 leftright=34
cache: result=miss generation=1
reads: book, library, shelf
step 1: /library[1] est=1 actual=1 phase=scan
step 2: /shelf[./book] est=2 actual=2 phase=join
step 3: /book est=3 actual=3 phase=join
matches: 3
`},
		// Off the child/descendant spine every step still runs through
		// the engine's one loop, so each step's actual is measured.
		{"//book/parent::shelf", `EXPLAIN //book/parent::shelf
strategy: leftright
cost: chosen=9 leftright=9
cache: result=miss generation=1
reads: book, shelf
step 1: //book est=3 actual=3 phase=scan
step 2: /parent::shelf est=2 actual=2 phase=join
matches: 2
`},
		{"//shelf[2]/preceding-sibling::shelf", `EXPLAIN //shelf[2]/preceding-sibling::shelf
strategy: leftright
cost: chosen=23 leftright=23
cache: result=miss generation=1
reads: shelf
step 1: //shelf[2] est=2 actual=1 phase=scan
step 2: /preceding-sibling::shelf est=2 actual=1 phase=join
matches: 1
`},
		// Predicate-free and narrowing: every book is verified by a
		// walk up its ancestor chain, and shelf and library are never
		// materialized.
		{"/library/shelf/book", `EXPLAIN /library/shelf/book
strategy: pathcheck anchor=3
cost: chosen=2 leftright=10
cache: result=miss generation=1
reads: book, library, shelf
step 1: /library est=1 actual=- phase=path-verified
step 2: /shelf est=2 actual=- phase=path-verified
step 3: /book est=3 actual=3 phase=anchor
matches: 3
`},
		// Same query again: the result cache holds it.
		{"//book", `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=hit generation=1
reads: book
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
step 1: //book est=3 actual=3 phase=scan
matches: 3
`, fmt.Sprintf(star, 2, 8)},
		{"book", `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=miss generation=3
reads: book
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

	// A * child step reads its parent's child list, /shelf: an x under
	// a book leaves /library[1]/shelf/* a hit, an x under a shelf makes
	// it a miss.
	const children = `EXPLAIN /library[1]/shelf/*
strategy: leftright
cost: chosen=24 leftright=24
cache: result=%s generation=%d
reads: /shelf, library, shelf
step 1: /library[1] est=1 actual=1 phase=scan
step 2: /shelf est=2 actual=2 phase=join
step 3: /* est=%d actual=%d phase=join
matches: %[4]d
`
	for _, e := range []struct {
		parent int // 2 is a book, 4 a shelf
		want   string
	}{
		{-1, fmt.Sprintf(children, "miss", 3, 9, 5)},
		{2, fmt.Sprintf(children, "hit", 4, 10, 5)},
		{4, fmt.Sprintf(children, "miss", 5, 11, 6)},
	} {
		if e.parent >= 0 {
			if _, _, err := h.InsertElement(e.parent, 0, "x"); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := h.Explain("/library[1]/shelf/*"); err != nil || got != e.want {
			t.Errorf("Explain(/library[1]/shelf/*) after an insert under %d =\n%s(%v)\nwant\n%s", e.parent, got, err, e.want)
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
