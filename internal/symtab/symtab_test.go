package symtab

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestCheck: a name passes exactly when encoding/xml reads it back as
// itself, an element's local name with no prefix.
func TestCheck(t *testing.T) {
	for _, good := range []string{"a", "_x", "a-b.c1", "é", "xmlns", "ABC_9", "ñame"} {
		if err := Check(good); err != nil {
			t.Errorf("Check(%q) = %v, want nil", good, err)
		}
	}
	for _, bad := range []string{"", "a b", "x><y", "1abc", "p:q", ":a", "a:", "-a", ".a", "a/", "a>", "a\x00", "a=\"1\"", " a", "a "} {
		if err := Check(bad); !errors.Is(err, ErrBadName) {
			t.Errorf("Check(%q) = %v, want ErrBadName", bad, err)
		}
	}
}

// TestIntern: one code per distinct name, in the order names arrive; a
// refused name takes none; and the table keeps its own copy of a name.
func TestIntern(t *testing.T) {
	tab := New()
	body := "<request>speech</request>"
	for i, name := range []string{"play", body[9:15], "play", "line", "speech"} {
		c, err := tab.Intern(name)
		if want := []uint32{0, 1, 0, 2, 1}[i]; err != nil || c != want {
			t.Fatalf("Intern(%q) = %d, %v; want %d", name, c, err, want)
		}
	}
	if _, err := tab.Intern("p:q"); !errors.Is(err, ErrBadName) || tab.Len() != 3 {
		t.Fatalf("Intern(p:q) = %v with %d names, want ErrBadName and 3", err, tab.Len())
	}
	if got := tab.Name(1); got != "speech" || unsafe.StringData(got) == unsafe.StringData(body[9:]) {
		t.Fatalf("Name(1) = %q, or it shares the bytes of the string it was cut from", got)
	}
	if b := tab.Bytes(); b < 3*(16+mapEntryBytes) {
		t.Fatalf("Bytes() = %d for three names", b)
	}
}

// TestBytesTracksHeap: for 10 000 interned names, Bytes is within a
// quarter of what interning them grew the live heap by.
func TestBytesTracksHeap(t *testing.T) {
	names := make([]string, 10_000)
	for i := range names {
		names[i] = fmt.Sprintf("n%07d", i) // 8 bytes: no size-class rounding
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := New()
	for _, name := range names {
		if _, err := tab.Intern(name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("10 000 names: heap grew %.0f B, Bytes %d", grew, tab.Bytes())
	if r := float64(tab.Bytes()) / grew; r < 0.75 || r > 1.25 {
		t.Errorf("Bytes() = %d for a heap growth of %.0f B (ratio %.2f)", tab.Bytes(), grew, r)
	}
	runtime.KeepAlive(tab)
}

// TestLookupWhileInterning: readers Lookup names while a writer interns
// them, and every code they find resolves to its name at once. Run it
// under -race.
func TestLookupWhileInterning(t *testing.T) {
	tab := New()
	const n = 2_000
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("n%d", i)
				for {
					if c, ok := tab.Lookup(name); ok {
						if got := tab.Name(c); got != name {
							t.Errorf("Lookup(%q) = %d, which names %q", name, c, got)
						}
						break
					}
					runtime.Gosched()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if _, err := tab.Intern(fmt.Sprintf("n%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if _, ok := tab.Lookup("absent"); ok {
		t.Error("Lookup found a name never interned")
	}
}
