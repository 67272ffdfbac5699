package dynxml

import (
	"errors"
	"testing"
)

// TestHandleExplainGolden pins Handle.Explain's rendered output — the
// exact text cmd/dynxml query -explain prints — across the planner's
// leftright and fallback strategies, the concurrent handle's
// generation-keyed cache (miss then hit), and the cache-less plain
// handle. The queries are chosen so the strategy choice cannot depend
// on the process-wide depth histograms (single step, or predicates
// blocking pathcheck): the output is a pure function of the document.
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
parallelism: 1
step 1: //book est=3 actual=3 phase=scan
matches: 3
`},
		{"/library[1]/shelf[./book]/book", `EXPLAIN /library[1]/shelf[./book]/book
strategy: leftright
cost: chosen=34 leftright=34
cache: result=miss generation=1
parallelism: 1
step 1: /library[1] est=1 actual=1 phase=scan
step 2: /shelf[./book] est=2 actual=2 phase=join
step 3: /book est=3 actual=3 phase=join
matches: 3
`},
		{"//book/parent::shelf", `EXPLAIN //book/parent::shelf
strategy: fallback-axes
cache: result=miss generation=1
parallelism: 1
step 1: //book est=3 actual=- phase=fallback
step 2: /parent::shelf est=2 actual=2 phase=fallback
matches: 2
`},
		// Same query again at the same generation: the result cache
		// holds it.
		{"//book", `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=hit generation=1
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

	// An edit invalidates: the next Explain at generation 2 misses.
	if _, _, err := h.InsertElement(0, 0, "pamphlet"); err != nil {
		t.Fatal(err)
	}
	got, err := h.Explain("//book")
	if err != nil {
		t.Fatal(err)
	}
	want := `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: result=miss generation=2
parallelism: 1
step 1: //book est=3 actual=3 phase=scan
matches: 3
`
	if got != want {
		t.Errorf("Explain after edit =\n%s\nwant\n%s", got, want)
	}

	// A plain handle has no generation and therefore no result cache.
	p, err := Open(seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err = p.Explain("//book")
	if err != nil {
		t.Fatal(err)
	}
	want = `EXPLAIN //book
strategy: leftright
cost: chosen=4 leftright=4
cache: off
parallelism: 1
step 1: //book est=3 actual=3 phase=scan
matches: 3
`
	if got != want {
		t.Errorf("plain-handle Explain =\n%s\nwant\n%s", got, want)
	}

	// Closed handles refuse.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Explain("//book"); !errors.Is(err, ErrClosed) {
		t.Errorf("Explain on closed handle: %v, want ErrClosed", err)
	}
}
