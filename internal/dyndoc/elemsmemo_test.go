package dyndoc

import (
	"os"
	"regexp"
	"testing"

	"repro/internal/containment"
	"repro/internal/datagen"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// benchmarkQueries returns every query text of benchmark/inputs.go:
// its string literals that start with a slash.
func benchmarkQueries(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../../benchmark/inputs.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(`"(/[^"]+)"`).FindAllSubmatch(src, -1) {
		out = append(out, string(m[1]))
	}
	if len(out) < 15 {
		t.Fatalf("found %d query texts in benchmark/inputs.go: %q", len(out), out)
	}
	return out
}

// TestBenchmarkQueriesLeaveElemsUnlisted: no query the benchmark
// issues makes the slice index list all its elements — not when it is
// planned (a * step's cardinality is the index's entry count), not when
// it is evaluated by either engine (the sibling axes read child lists).
// The memo is observed through the backend's footprint, which charges
// it while it is held; //* at the end shows the observation is live.
func TestBenchmarkQueriesLeaveElemsUnlisted(t *testing.T) {
	plays := xmltree.NewElement("plays")
	for _, f := range datagen.D5(1).Files[:2] {
		plays.AppendChild(f.Root)
	}
	order := xmltree.NewElement("order")
	for i := 0; i < 20; i++ {
		item := order.AppendChild(xmltree.NewElement("item"))
		for _, f := range []string{"sku", "qty", "price", "note"} {
			item.AppendChild(xmltree.NewElement(f))
		}
	}
	queries := benchmarkQueries(t)
	for name, root := range map[string]*xmltree.Node{"plays": plays, "order": order, "hamlet": datagen.Hamlet().Root} {
		c, err := NewConcurrent(&xmltree.Document{Root: root}, containment.Build(keys.VCDBS()))
		if err != nil {
			t.Fatal(err)
		}
		footprint := func() (fp int64) {
			_ = c.Snapshot(func(d *Document) error { fp = d.Store().MemoryFootprint(); return nil })
			return fp
		}
		before, matched := footprint(), 0
		for _, q := range queries {
			planned, err := c.QueryString(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			if _, err := c.Explain(q); err != nil {
				t.Fatalf("%s: explain %s: %v", name, q, err)
			}
			err = c.Snapshot(func(d *Document) error {
				ids, err := naive(d, q)
				if err == nil && len(ids) != len(planned) {
					t.Errorf("%s: %s: %d matches planned, %d naive", name, q, len(planned), len(ids))
				}
				return err
			})
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			if len(planned) > 0 {
				matched++
			}
			if fp := footprint(); fp != before {
				t.Fatalf("%s: %s grew the index from %d to %d B: it listed all elements", name, q, before, fp)
			}
		}
		if matched < 3 {
			t.Errorf("%s: only %d of the benchmark's queries match anything", name, matched)
		}
		if n, err := c.Count("//*"); err != nil || n == 0 || footprint() <= before {
			t.Errorf("%s: //* = %d, %v and a footprint of %d B, was %d: the memo does not show", name, n, err, footprint(), before)
		}
	}
}
