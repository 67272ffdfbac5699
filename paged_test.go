package dynxml

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pagestore"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// pagedSeed builds an XML document with n <item> children (each
// wrapping a <tag>) under a root — enough structure that the paged
// index spans far more pages than a small cache holds.
func pagedSeed(n int) string {
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<item><tag>t%d</tag></item>", i)
	}
	b.WriteString("</lib>")
	return b.String()
}

// TestPagedMatchesSlice opens the same document on the slice and paged
// backends with a cache far smaller than the index and checks that
// queries, edits and stats agree — the paged backend must be a drop-in
// behind the same Handle API.
func TestPagedMatchesSlice(t *testing.T) {
	text := pagedSeed(2000)
	sl, err := Open(text)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	pg, err := Open(text, WithPagedLabels(t.TempDir()), WithPageCache(pagestore.MinCachePages))
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()

	if got := pg.Stats().Storage.Backend; got != "paged" {
		t.Fatalf("Storage.Backend = %q, want paged", got)
	}
	if got := sl.Stats().Storage.Backend; got != "slice" {
		t.Fatalf("Storage.Backend = %q, want slice", got)
	}

	queries := []string{"/lib", "/lib/item", "//tag", "/lib/item[2]", "//item[./tag]"}
	for _, q := range queries {
		want, err := sl.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pg.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %s: paged %v, slice %v", q, got, want)
		}
	}

	// The same edits on both sides must keep them identical.
	for _, h := range []*Handle{sl, pg} {
		items, err := h.QueryString("/lib/item")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.InsertElement(items[10], 0, "extra"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.DeleteSubtree(items[20]); err != nil {
			t.Fatal(err)
		}
	}
	if sl.XML() != pg.XML() {
		t.Fatal("documents diverged after edits")
	}
	for _, q := range append(queries, "//extra") {
		want, _ := sl.QueryString(q)
		got, err := pg.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after edits, query %s: paged %v, slice %v", q, got, want)
		}
	}

	st := pg.Stats().Storage
	if st.AllocatedPages <= pagestore.MinCachePages {
		t.Fatalf("index should outgrow the cache: %d pages allocated", st.AllocatedPages)
	}
	if st.ResidentPages > pagestore.MinCachePages+1 {
		t.Fatalf("resident pages %d exceed the %d-page budget", st.ResidentPages, pagestore.MinCachePages)
	}
	if st.CacheMisses == 0 || st.Writebacks == 0 {
		t.Fatalf("a cache-starved index must miss and write back: %+v", st)
	}
}

// TestPagedFootprintBounded checks the point of paging: the handle's
// estimated footprint charges the bounded page cache, not the on-disk
// index, so it sits far below the slice backend's for the same
// document.
func TestPagedFootprintBounded(t *testing.T) {
	text := pagedSeed(3000)
	sl, err := Open(text)
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	pg, err := Open(text, WithPagedLabels(t.TempDir()), WithPageCache(pagestore.MinCachePages))
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	// Warm both so memoized id lists count.
	if _, err := pg.QueryString("//tag"); err != nil {
		t.Fatal(err)
	}
	slFP, pgFP := sl.MemoryFootprint(), pg.MemoryFootprint()
	if pgFP <= 0 || slFP <= 0 {
		t.Fatalf("footprints must be positive: slice %d, paged %d", slFP, pgFP)
	}
	// Both charge the same columns and labels; the difference is the
	// backend share, where paged must be bounded by its cache (plus
	// memos), while slice grows with every entry.
	var backendShare int64
	pg.view(func(d *LiveDocument) { backendShare = d.Store().MemoryFootprint() })
	budget := int64(pagestore.MinCachePages+1) * pagestore.PageSize
	memoAllowance := int64(pg.Len()) * 24 // memoized id slices + name table
	if backendShare > budget+memoAllowance {
		t.Fatalf("paged backend share %d exceeds cache budget %d + memo allowance %d", backendShare, budget, memoAllowance)
	}
}

// TestPagedUnsupportedScheme: every scheme without an order-preserving
// label encoding is refused before the directory is created or
// anything already in it is touched.
func TestPagedUnsupportedScheme(t *testing.T) {
	const src = "<a><b></b></a>"
	refused := 0
	for _, entry := range registry.All() {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := entry.Build(doc)
		if err != nil {
			t.Fatal(err)
		}
		if scheme.Ordered(lab) {
			continue
		}
		refused++
		absent := filepath.Join(t.TempDir(), "pages")
		if _, err := Open(src, WithScheme(entry.Name), WithPagedLabels(absent)); !errors.Is(err, ErrPagedUnsupported) {
			t.Fatalf("scheme %s: err = %v, want ErrPagedUnsupported", entry.Name, err)
		}
		if _, err := os.Stat(absent); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("scheme %s: refused open created %s (stat: %v)", entry.Name, absent, err)
		}
		kept := t.TempDir()
		stale := filepath.Join(kept, "labels-000007.pages")
		if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(src, WithScheme(entry.Name), WithPagedLabels(kept)); !errors.Is(err, ErrPagedUnsupported) {
			t.Fatalf("scheme %s: err = %v, want ErrPagedUnsupported", entry.Name, err)
		}
		files, err := os.ReadDir(kept)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(stale); len(files) != 1 || string(got) != "stale" {
			t.Fatalf("scheme %s: refused open left %d files in its directory, %s = %q", entry.Name, len(files), filepath.Base(stale), got)
		}
	}
	if refused != 10 {
		t.Fatalf("%d schemes refused, want 10", refused)
	}
	if _, err := Open("<a></a>", WithPageCache(64)); err == nil {
		t.Fatal("WithPageCache without WithPagedLabels must fail")
	}
}

// TestPagedJournalRoundTrip journals a paged document, edits it,
// closes, and replays — the paged index is rebuilt from the journal,
// so every acknowledged edit must be visible, and checkpoints written
// with paged labels must omit the redundant label records.
func TestPagedJournalRoundTrip(t *testing.T) {
	base := t.TempDir()
	jdir := filepath.Join(base, "journal")
	pdir := filepath.Join(base, "journal", "pages")
	open := func(src any) *Handle {
		t.Helper()
		h, err := Open(src, WithJournal(jdir), WithPagedLabels(pdir), WithPageCache(pagestore.MinCachePages), WithRecover())
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h := open(pagedSeed(400))
	items, err := h.QueryString("/lib/item")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := h.InsertElement(items[i*7], 0, "mark"); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := h.InsertElement(items[i*11+1], 1, "late"); err != nil {
			t.Fatal(err)
		}
	}
	want := h.XML()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	r := open(nil)
	defer r.Close()
	if got := r.XML(); got != want {
		t.Fatal("replayed document differs")
	}
	if got := r.Stats().Storage.Backend; got != "paged" {
		t.Fatalf("replayed backend %q, want paged", got)
	}
	marks, err := r.QueryString("//mark")
	if err != nil {
		t.Fatal(err)
	}
	late, err := r.QueryString("//late")
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != 20 || len(late) != 10 {
		t.Fatalf("replay lost edits: %d marks, %d late", len(marks), len(late))
	}
}

// TestPagedSurvivesPageFileDamage is the paged half of the kill
// matrix: whatever happens to the page files between runs — deletion,
// truncation, bit rot — reopening from the journal must restore every
// acknowledged edit, because pages are a rebuilt cache, never the
// store of record.
func TestPagedSurvivesPageFileDamage(t *testing.T) {
	damage := []struct {
		name string
		hit  func(t *testing.T, path string)
	}{
		{"delete", func(t *testing.T, path string) { _ = os.Remove(path) }},
		{"truncate", func(t *testing.T, path string) { _ = os.Truncate(path, pagestore.PageSize+17) }},
		{"corrupt", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil || len(b) == 0 {
				return
			}
			for i := 0; i < len(b); i += 97 {
				b[i] ^= 0xFF
			}
			_ = os.WriteFile(path, b, 0o644)
		}},
	}
	for _, dmg := range damage {
		t.Run(dmg.name, func(t *testing.T) {
			base := t.TempDir()
			jdir := filepath.Join(base, "j")
			pdir := filepath.Join(base, "p")
			h, err := Open(pagedSeed(300), WithJournal(jdir), WithPagedLabels(pdir))
			if err != nil {
				t.Fatal(err)
			}
			items, err := h.QueryString("/lib/item")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				if _, _, err := h.InsertElement(items[i], 0, "acked"); err != nil {
					t.Fatal(err)
				}
			}
			want := h.XML()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}

			files, err := filepath.Glob(filepath.Join(pdir, "labels-*.pages"))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				dmg.hit(t, f)
			}

			r, err := Open(nil, WithJournal(jdir), WithPagedLabels(pdir), WithRecover())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.XML(); got != want {
				t.Fatal("acked edits lost after page-file damage")
			}
			acked, err := r.QueryString("//acked")
			if err != nil {
				t.Fatal(err)
			}
			if len(acked) != 12 {
				t.Fatalf("got %d acked markers, want 12", len(acked))
			}
		})
	}
}

// TestPagedNonConcurrent exercises the plain (non-snapshot) handle on
// the paged backend.
func TestPagedNonConcurrent(t *testing.T) {
	h, err := Open(pagedSeed(50), WithPagedLabels(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Concurrent() {
		t.Fatal("plain open must not be concurrent")
	}
	if h.Live() == nil {
		t.Fatal("plain handle must expose Live")
	}
	n, err := h.Count("//tag")
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("Count = %d, want 50", n)
	}
	// Checkpoint on an unjournaled paged handle flushes the pages.
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal("Close must stay idempotent:", err)
	}
}

// TestPagedLabelLimit piles inserts into one gap of a paged document
// until the next label would no longer fit a B-tree key. That insert
// must come back as ErrLabelTooLong with the document exactly as it
// was — it used to come back untyped after the index had been dropped
// for a rebuild that met the same label — and inserts elsewhere must
// go on working.
func TestPagedLabelLimit(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		opts := []Option{WithPagedLabels(t.TempDir())}
		if concurrent {
			opts = append(opts, WithConcurrent())
		}
		h, err := Open("<r><a/><b/></r>", opts...)
		if err != nil {
			t.Fatal(err)
		}
		limit := h.Stats().Storage.MaxLabel
		if limit <= 0 || limit > pagestore.MaxKeySize {
			t.Fatalf("paged Storage.MaxLabel = %d", limit)
		}
		refused := metrics.Default.Counter("dyndoc_label_too_long_total")
		refusedBefore := refused.Value()
		inserted := 0
		for err == nil {
			if _, _, err = h.InsertElement(0, 1, "x"); err == nil {
				inserted++
			}
			if inserted > 16*limit {
				t.Fatalf("%d single-gap inserts and no label limit in sight", inserted)
			}
		}
		if !errors.Is(err, ErrLabelTooLong) {
			t.Fatalf("insert %d: %v, want ErrLabelTooLong", inserted+1, err)
		}
		st := h.Stats()
		if st.LongestLabel != limit || st.Nodes != 3+inserted {
			t.Errorf("after the refusal: longest label %d (limit %d), %d nodes for %d inserts", st.LongestLabel, limit, st.Nodes, inserted)
		}
		xml := h.XML()
		// Refused again and again, it stays refused and stays harmless.
		for i := 0; i < 3; i++ {
			if _, _, err := h.InsertElement(0, 1, "x"); !errors.Is(err, ErrLabelTooLong) {
				t.Fatalf("repeated insert: %v, want ErrLabelTooLong", err)
			}
			if _, _, err := h.InsertTree(0, 1, &Node{Name: "x", Children: []*Node{{Name: "x"}}}); !errors.Is(err, ErrLabelTooLong) {
				t.Fatalf("fragment insert: %v, want ErrLabelTooLong", err)
			}
		}
		if got := refused.Value() - refusedBefore; got != 7 {
			t.Errorf("dyndoc_label_too_long_total moved by %d, want 7", got)
		}
		if n, err := h.Count("//x"); err != nil || n != inserted {
			t.Errorf("Count(//x) = %d, %v after the refused edits; want %d", n, err, inserted)
		}
		if h.XML() != xml || strings.Count(xml, "<x>") != inserted {
			t.Error("a refused edit changed the document")
		}
		if _, _, err := h.InsertElement(0, 0, "y"); err != nil {
			t.Errorf("insert into a fresh gap after the refusal: %v", err)
		}
		if n, err := h.Count("//y"); err != nil || n != 1 {
			t.Errorf("Count(//y) = %d, %v", n, err)
		}
		if n, err := h.Count("//x"); err != nil || n != inserted {
			t.Errorf("Count(//x) = %d, %v after a later insert; want %d", n, err, inserted)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPagedInsertAllocs pins a whole InsertElement on a warm paged
// document under the default scheme: the two codes the insert computes
// (Corollary 3.3) and nothing else — the B-trees copy the new label
// into their page frames, and nothing boxes a key, builds it from a
// copy of its bytes or re-encodes it on the way from the labeling to
// the index. Page splits and column growth are amortised and round to
// zero.
func TestPagedInsertAllocs(t *testing.T) {
	h, err := Open(pagedSeed(2000), WithPagedLabels(t.TempDir()), WithPageCache(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	items, err := h.QueryString("/lib/item")
	if err != nil || len(items) != 2000 {
		t.Fatalf("items: %d, %v", len(items), err)
	}
	i := 0
	insert := func() {
		if _, _, err := h.InsertElement(items[i%len(items)], 0, "tag"); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 4000 { // every leaf the run will touch is resident and private
		insert()
	}
	if got := testing.AllocsPerRun(2000, insert); got > 2 {
		t.Errorf("InsertElement on a warm paged document allocates %.1f times, want <= 2", got)
	}
}

// TestPagedOneTree pins the paged index at one tree: the 50 001
// elements of pagedSeed(25000) take at most 340 pages, and an insert
// touches its own name's key range and nothing else — after a warm-up,
// 2 000 inserts of one name under parents scattered over the whole
// document fault no page into a 64-page cache.
func TestPagedOneTree(t *testing.T) {
	h, err := Open(pagedSeed(25000), WithPagedLabels(t.TempDir()), WithPageCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.Stats().Storage.AllocatedPages; got > 340 {
		t.Errorf("the index of 50 001 elements takes %d pages, want <= 340", got)
	}
	items, err := h.QueryString("/lib/item")
	if err != nil || len(items) != 25000 {
		t.Fatalf("items: %d, %v", len(items), err)
	}
	i := 0
	insert := func() {
		if _, _, err := h.InsertElement(items[i*7919%len(items)], 0, "x"); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 500 {
		insert()
	}
	before := h.Stats().Storage.CacheMisses
	for i < 2500 {
		insert()
	}
	if got := h.Stats().Storage.CacheMisses - before; got != 0 {
		t.Errorf("2000 scattered inserts of one name faulted %d pages, want 0", got)
	}
}
