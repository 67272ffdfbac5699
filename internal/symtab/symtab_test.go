package symtab

import (
	"errors"
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
