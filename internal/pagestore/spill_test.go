package pagestore

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
)

// writeBackAll writes every dirty resident page back in ascending page
// id, as eviction would one page at a time: the tests that compare
// frames with the file's bytes start from a file that holds them all.
func writeBackAll(p *Pager) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dirty []uint32
	for id, e := range p.cache {
		if e.dirty {
			dirty = append(dirty, id)
		}
	}
	slices.Sort(dirty)
	for _, id := range dirty {
		if err := p.writebackLocked(p.cache[id]); err != nil {
			return err
		}
	}
	return nil
}

// fileBytes is the whole content of p's page file, read through its
// descriptor: the file has no name to read it by.
func fileBytes(t *testing.T, p *Pager) []byte {
	t.Helper()
	st, err := p.file.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, st.Size())
	if _, err := p.file.f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBadSpillIsCounted damages two evicted leaves in the file — one
// flipped byte in one, the file truncated in the middle of the other —
// and reads every key back through a minimum cache. A read that meets a
// damaged page fails with *ErrPageCorrupt or the file's read error,
// never a panic or a wrong value; every other read returns its value;
// and pagestore_read_errors_total moves by exactly the number of failed
// faults, one per failed read, since a bad page is never cached.
func TestBadSpillIsCounted(t *testing.T) {
	p := newTestPager(t, MinCachePages)
	tr := NewTree(p)
	const n = 3000
	key := func(i int) []byte { return fmt.Appendf(nil, "key-%06d", i) }
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeBackAll(p); err != nil {
		t.Fatal(err)
	}
	// Fault every page in, highest id first, so the cache ends up
	// holding the lowest ids and nothing above MinCachePages.
	last := p.Stats().Allocated
	leaf := map[int]bool{}
	for id := last; id >= 1; id-- {
		nd, err := p.node(uint32(id))
		if err != nil {
			t.Fatal(err)
		}
		leaf[id] = nd.leaf()
	}
	flipped := MinCachePages + 1
	for !leaf[flipped] {
		flipped++
	}
	if !leaf[last] || flipped >= last {
		t.Fatalf("setup: %d pages, leaves at %d and %d wanted", last, flipped, last)
	}
	buf := make([]byte, 1)
	off := int64(flipped)*PageSize + HeaderSize + 40
	if _, err := p.file.f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x20
	if _, err := p.file.f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if err := p.file.f.Truncate(int64(last)*PageSize + PageSize/2); err != nil {
		t.Fatal(err)
	}

	before := mReadErrors.Value()
	var failed, corrupt, short int
	check := func(err error) {
		var pc *ErrPageCorrupt
		switch {
		case errors.As(err, &pc):
			corrupt++
		case errors.Is(err, io.EOF):
			short++
		default:
			t.Fatalf("read failed with %T (%v), want *ErrPageCorrupt or EOF", err, err)
		}
		failed++
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(key(i))
		if err != nil {
			check(err)
			continue
		}
		if !ok || v != uint32(i) {
			t.Fatalf("key %d: got %d ok=%v from a damaged file", i, v, ok)
		}
	}
	seen := 0
	err := tr.Scan(func(k []byte, v uint32) bool {
		if string(k) != string(key(seen)) || v != uint32(seen) {
			t.Fatalf("scan entry %d is %q=%d", seen, k, v)
		}
		seen++
		return true
	})
	if err == nil {
		t.Fatalf("a scan over two damaged leaves visited %d entries and did not fail", seen)
	}
	check(err)
	t.Logf("%d failed reads: %d corrupt, %d short", failed, corrupt, short)
	if corrupt == 0 || short == 0 {
		t.Fatalf("%d corrupt and %d short reads, want both", corrupt, short)
	}
	if got := mReadErrors.Value() - before; got != int64(failed) {
		t.Fatalf("pagestore_read_errors_total moved by %d over %d failed reads", got, failed)
	}
}
