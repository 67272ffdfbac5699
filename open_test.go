package dynxml

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

const openSeed = `<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>`

// TestOpenSourceKinds drives every supported src type through Open.
func TestOpenSourceKinds(t *testing.T) {
	doc, err := ParseXMLString(openSeed)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]any{
		"document": doc,
		"string":   openSeed,
		"bytes":    []byte(openSeed),
		"reader":   strings.NewReader(openSeed),
	} {
		t.Run(name, func(t *testing.T) {
			h, err := Open(src)
			if err != nil {
				t.Fatal(err)
			}
			if h.Scheme() != DefaultScheme {
				t.Fatalf("Scheme = %q, want %q", h.Scheme(), DefaultScheme)
			}
			if h.Concurrent() {
				t.Fatal("plain handle reports concurrent")
			}
			if n, err := h.Count("//book"); err != nil || n != 3 {
				t.Fatalf("Count(//book) = %d, %v; want 3", n, err)
			}
		})
	}
	if _, err := Open(42); err == nil {
		t.Fatal("unsupported source type accepted")
	}
	if _, err := Open((*Document)(nil)); err == nil {
		t.Fatal("nil document accepted")
	}
	if _, err := Open("<broken"); err == nil {
		t.Fatal("bad XML accepted")
	}
}

// TestOpenOptions covers WithScheme, WithConcurrent and the typed
// unknown-scheme failure.
func TestOpenOptions(t *testing.T) {
	h, err := Open(openSeed, WithScheme("QED-Prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Scheme() != "QED-Prefix" {
		t.Fatalf("Scheme = %q", h.Scheme())
	}
	if h.Live() == nil || h.Shared() != nil {
		t.Fatal("plain handle accessors wrong")
	}
	if h.Labeling() == nil {
		t.Fatal("no labeling on plain handle")
	}

	c, err := Open(openSeed, WithConcurrent())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Concurrent() || c.Shared() == nil || c.Live() != nil {
		t.Fatal("concurrent handle accessors wrong")
	}
	if c.Labeling() == nil {
		t.Fatal("no labeling on concurrent handle")
	}
	if _, _, err := c.InsertElement(0, 0, "index"); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Count("//index"); err != nil || n != 1 {
		t.Fatalf("Count(//index) = %d, %v; want 1", n, err)
	}

	_, err = Open(openSeed, WithScheme("V-CDBS-Containmen"))
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("errors.Is(err, ErrUnknownScheme) = false for %v", err)
	}
	if !strings.Contains(err.Error(), "did you mean") || !strings.Contains(err.Error(), "V-CDBS-Containment") {
		t.Fatalf("near-miss error lacks a suggestion: %q", err)
	}
}

// TestOpenBatch checks ApplyBatch and InsertTreeBatch through the
// handle: a concurrent handle publishes a batch as one snapshot.
func TestOpenBatch(t *testing.T) {
	h, err := Open(openSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.ApplyBatch([]Edit{
		{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "a"},
		{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "b"},
	})
	if err != nil || len(res) != 2 {
		t.Fatalf("ApplyBatch = %d results, %v", len(res), err)
	}

	c, err := Open(openSeed, WithConcurrent())
	if err != nil {
		t.Fatal(err)
	}
	edits := make([]Edit, 5)
	for i := range edits {
		edits[i] = Edit{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "x"}
	}
	res, err = c.ApplyBatch(edits)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("concurrent ApplyBatch returned %d results, want 5", len(res))
	}
	if g := c.Shared().Generation(); g != 1 {
		t.Fatalf("generation %d after one batch, want 1", g)
	}
	if n, err := c.Count("//x"); err != nil || n != 5 {
		t.Fatalf("Count(//x) = %d, %v; want 5", n, err)
	}

	frag, err := ParseXMLString("<shelf><book/></shelf>")
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := c.InsertTreeBatch(0, 0, []*Node{frag.Root, frag.Root})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("InsertTreeBatch returned %d slices", len(ids))
	}
	if removed, err := c.DeleteSubtree(ids[0][0]); err != nil || removed != 2 {
		t.Fatalf("DeleteSubtree = %d, %v; want 2", removed, err)
	}
}

// TestOpenAccessorsAgree checks the typed views a handle hands out
// (Labeling, Live, Shared) describe the same document the handle does,
// for every source kind and mode the retired constructors covered.
func TestOpenAccessorsAgree(t *testing.T) {
	doc, err := ParseXMLString(openSeed)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := Open(doc, WithScheme("V-CDBS-Containment"))
	if err != nil {
		t.Fatal(err)
	}
	if lab := labeled.Labeling(); lab.Len() != doc.Len() {
		t.Fatalf("labeling has %d nodes, document %d", lab.Len(), doc.Len())
	}
	h, err := Open(openSeed, WithScheme("QED-Prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Live().XML() != h.XML() {
		t.Fatal("Live() and the handle disagree")
	}
	c, err := Open(openSeed, WithScheme("V-CDBS-Containment"), WithConcurrent())
	if err != nil {
		t.Fatal(err)
	}
	if c.Shared().Len() != h.Len() {
		t.Fatal("Shared() and a plain handle disagree on node count")
	}
	for _, bad := range []func() error{
		func() error { _, err := Open(doc, WithScheme("bogus")); return err },
		func() error { _, err := Open(openSeed, WithScheme("bogus")); return err },
		func() error { _, err := Open(openSeed, WithScheme("bogus"), WithConcurrent()); return err },
	} {
		if err := bad(); !errors.Is(err, ErrUnknownScheme) {
			t.Fatalf("error %v does not match ErrUnknownScheme", err)
		}
	}
}

// TestStatsEscapedKeys: HandleStats.EscapedKeys reads no key held
// outside its ref after Open, and counts those that repeated inserts
// into one gap push out: from the 17th on, at least one a node.
func TestStatsEscapedKeys(t *testing.T) {
	h, err := Open(openSeed, WithScheme("V-CDBS-Containment"))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().EscapedKeys; got != 0 {
		t.Fatalf("EscapedKeys after Open = %d, want 0", got)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := h.InsertElement(0, 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Stats().EscapedKeys; got < 40-17 {
		t.Errorf("EscapedKeys after 40 inserts into one gap = %d, want at least %d", got, 40-17)
	}
}

// TestMetricsJSON checks the read-only metrics snapshot carries the
// instrumented keys after some activity.
func TestMetricsJSON(t *testing.T) {
	c, err := Open(openSeed, WithConcurrent())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyBatch([]Edit{{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "m"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryString("//m"); err != nil {
		t.Fatal(err)
	}
	data, err := MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"dyndoc_snapshot_swaps_total",
		"dyndoc_reader_staleness_gens",
		"dyndoc_batch_size",
		"cdbs_code_len_bits",
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("metrics snapshot lacks %q:\n%s", key, data)
		}
	}
	// The one Open above said where its time went.
	var all map[string]json.RawMessage
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"dynxml_open_parse_seconds", "dynxml_open_label_seconds", "dynxml_open_index_seconds"} {
		var h struct{ Count int }
		if err := json.Unmarshal(all[key], &h); err != nil || h.Count < 1 {
			t.Errorf("%s observed %d opens (%v), want at least one", key, h.Count, err)
		}
	}
}
