package dynxml

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pagestore"
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
	// Both share the per-id constant (no edits yet: ids = nodes); the difference is the backend
	// share, where paged must be bounded by its cache (plus memos),
	// while slice grows with every entry.
	backendShare := pgFP - int64(pg.Len())*bytesPerID
	budget := int64(pagestore.MinCachePages+1) * pagestore.PageSize
	memoAllowance := int64(pg.Len()) * 24 // memoized id slices + name table
	if backendShare > budget+memoAllowance {
		t.Fatalf("paged backend share %d exceeds cache budget %d + memo allowance %d", backendShare, budget, memoAllowance)
	}
}

// TestPagedUnsupportedScheme: schemes without an order-preserving
// label encoding must be refused up front.
func TestPagedUnsupportedScheme(t *testing.T) {
	for _, name := range []string{"V-Binary-Containment", "Float-point-Containment", "QED-Prefix", "Prime"} {
		_, err := Open("<a><b></b></a>", WithScheme(name), WithPagedLabels(t.TempDir()))
		if !errors.Is(err, ErrPagedUnsupported) {
			t.Fatalf("scheme %s: err = %v, want ErrPagedUnsupported", name, err)
		}
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
