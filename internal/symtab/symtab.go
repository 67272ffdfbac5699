// Package symtab interns the element and attribute names of a document
// and of every clone of it: one Table per family, one small code per
// distinct name, so that a node stores four bytes where it stored a
// string header and a string of its own.
//
// A Table only grows. A code, once handed out, names the same string
// forever, so a reader resolves any code it holds without a lock: the
// names are published through an atomic pointer to a slice whose
// written slots are never written again, and a code is handed out only
// after the slice that holds it is published. Lookup finds a name's
// code without a lock too, in a sync.Map that a code enters only after
// its name is published. Interning a new name takes the table's own
// mutex; a family's writers are serialized anyway (a shared document's
// writer mutex), so the lock is uncontended except between divergent
// clones edited at once. A name that a discarded clone interned stays
// in the table with nothing referring to it.
package symtab

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MaxCodes is how many names one table holds: a code fits in 31 bits,
// which leaves a holder the top bit of a uint32 for a flag of its own.
const MaxCodes = 1 << 31

// ErrBadName reports a name a document cannot store: one that is not an
// XML Name, or that holds a colon. A document is checkpointed as its XML
// text and parsed back without namespaces, so such a name would come
// back as something else ("p:q" as "q") or not at all.
var ErrBadName = errors.New("symtab: not an XML name without a colon")

// errFull reports a table that holds MaxCodes names.
var errFull = errors.New("symtab: table full")

// Check returns nil if name is an XML Name with no colon: exactly what
// encoding/xml, the parser a checkpoint is read back with, returns as
// the local name of an element or attribute so named.
func Check(name string) error {
	if name == "" || strings.IndexByte(name, ':') >= 0 {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).RawToken()
	if se, ok := tok.(xml.StartElement); err != nil || !ok || se.Name.Local != name || len(se.Attr) > 0 {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Table is an append-only symbol table. The zero value is not usable;
// construct with New.
type Table struct {
	mu    sync.Mutex // serializes Intern's additions
	codes sync.Map   // name -> code, stored after the name is published
	names atomic.Pointer[[]string]
	heap  atomic.Int64 // the names' bytes and map entries, for Bytes
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	t.names.Store(new([]string))
	return t
}

// Lookup returns name's code and true, or false if t does not hold
// name. Any goroutine may call it without a lock; a code it returns
// resolves through Name at once.
func (t *Table) Lookup(name string) (uint32, bool) {
	c, ok := t.codes.Load(name)
	if !ok {
		return 0, false
	}
	return c.(uint32), true
}

// Intern returns name's code, adding name if t does not hold it yet. A
// new name must pass Check; a refused one leaves t unchanged. The table
// keeps its own copy of a new name, so it never holds on to a larger
// string the caller's name was cut from. A name t holds takes no lock.
func (t *Table) Intern(name string) (uint32, error) {
	if c, ok := t.Lookup(name); ok {
		return c, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.Lookup(name); ok {
		return c, nil
	}
	if err := Check(name); err != nil {
		return 0, err
	}
	names := *t.names.Load()
	if uint64(len(names)) >= MaxCodes {
		return 0, errFull
	}
	c := uint32(len(names))
	names = append(names, strings.Clone(name))
	t.names.Store(&names)
	t.codes.Store(names[c], c)
	t.heap.Add(int64(len(name)) + mapEntryBytes)
	return c, nil
}

// Name returns the name code stands for. Any goroutine may call it
// without a lock, for any code Intern has returned.
func (t *Table) Name(code uint32) string { return (*t.names.Load())[code] }

// Len returns the number of names t holds.
func (t *Table) Len() int { return len(*t.names.Load()) }

// mapEntryBytes is about what one name costs in the codes map: the
// sync.Map's entry node with its key and value boxed, and its trie's
// inner nodes spread over the entries: 112 B a name at 10 000 names and
// 136 at 100 000 on amd64 (TestBytesTracksHeap), where a
// map[string]uint32 cost about 48.
const mapEntryBytes = 120

// Bytes estimates t's heap: the names' slots and bytes and the map that
// finds a name's code. It costs the same however many names t holds.
func (t *Table) Bytes() int64 {
	return int64(cap(*t.names.Load()))*int64(unsafe.Sizeof("")) + t.heap.Load()
}
