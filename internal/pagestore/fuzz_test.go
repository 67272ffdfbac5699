package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/crc32c"
)

// sealPage fills in a page header by hand and seals the buffer.
func sealPage(buf []byte, id uint32, typ PageType, nkeys, used int) {
	binary.BigEndian.PutUint32(buf[0:4], pageMagic)
	binary.BigEndian.PutUint32(buf[4:8], id)
	buf[8] = byte(typ)
	binary.BigEndian.PutUint16(buf[10:12], uint16(nkeys))
	binary.BigEndian.PutUint16(buf[12:14], uint16(used))
	Seal(buf)
}

// FuzzPageRoundTrip seals arbitrary payload bytes into a page, reads
// it back clean, then corrupts exactly one byte anywhere in the page —
// header, payload, unused tail or footer — and requires Verify to
// fail. The CRC covers every byte it does not itself occupy, and a
// flipped CRC byte disagrees with the recomputed sum, so no single
// corrupted byte may ever verify.
func FuzzPageRoundTrip(f *testing.F) {
	f.Add([]byte("label bytes"), uint32(7), 100, byte(0x01))
	f.Add([]byte{}, uint32(1), 0, byte(0x80))
	f.Add(bytes.Repeat([]byte{0xAB}, PayloadSize), uint32(1<<20), 4095, byte(0xFF))
	f.Fuzz(func(t *testing.T, data []byte, id uint32, pos int, flip byte) {
		if id == 0 {
			id = 1
		}
		if len(data) > PayloadSize {
			data = data[:PayloadSize]
		}
		buf := make([]byte, PageSize)
		copy(buf[HeaderSize:], data)
		sealPage(buf, id, PageLeaf, 0, len(data))
		if err := Verify(buf, id); err != nil {
			t.Fatalf("clean page failed verification: %v", err)
		}
		if !bytes.Equal(buf[HeaderSize:HeaderSize+len(data)], data) {
			t.Fatalf("payload round trip mismatch")
		}
		if flip == 0 {
			flip = 1 // xor by zero would not corrupt anything
		}
		pos %= PageSize
		if pos < 0 {
			pos += PageSize
		}
		buf[pos] ^= flip
		if err := Verify(buf, id); err == nil {
			t.Fatalf("single corrupted byte at %d (xor %02x) still verified", pos, flip)
		}
	})
}

// FuzzMetaDecode feeds arbitrary bytes to the meta-slot decoder: it
// must never accept a slot whose checksum does not match, and
// re-encoding an accepted slot must reproduce the input.
func FuzzMetaDecode(f *testing.F) {
	f.Add(encodeMeta(Meta{Epoch: 3, Pages: 9, Roots: [2]uint32{4, 5}, Counts: [2]uint64{1, 2}}))
	f.Add(make([]byte, metaSlotLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := decodeMeta(data)
		if !ok {
			return
		}
		if !bytes.Equal(encodeMeta(m), data[:metaSlotLen]) {
			t.Fatalf("accepted meta %+v does not re-encode to its input", m)
		}
	})
}

// corruptPages is one hand-built page per reason validate rejects a
// CRC-clean frame, each a well-formed page damaged in one place.
func corruptPages() map[string]*node {
	build := func(typ PageType, damage func(n *node)) *node {
		n := newNode(typ)
		keys := []string{"alpha", "bravo", "charlie", "delta"}
		if typ == PageInternal {
			keys[0] = "" // child 0
		}
		for i, k := range keys {
			n.put(i, []byte(k), uint32(i))
		}
		n.remove(1)
		damage(n)
		return n
	}
	return map[string]*node{
		"well-formed leaf":     build(PageLeaf, func(n *node) {}),
		"well-formed internal": build(PageInternal, func(n *node) {}),
		"unknown type":         build(PageLeaf, func(n *node) { n[8] = byte(PageFree) }),
		"internal without child 0": build(PageInternal, func(n *node) {
			n.setDead(n.used())
			n.setCount(0)
		}),
		"internal with a key on child 0": build(PageInternal, func(n *node) {
			n.remove(0)
		}),
		"slot directory inside the heap": build(PageLeaf, func(n *node) { n.setCount(PayloadSize / 2) }),
		"slot out of range":              build(PageLeaf, func(n *node) { n.setSlot(2, n.used(), 0) }),
		"truncated entry":                build(PageLeaf, func(n *node) { n.setUsed(n.used() - 1) }),
		"key too long": build(PageLeaf, func(n *node) {
			big := newNode(PageLeaf)
			big.put(0, bytes.Repeat([]byte{'k'}, MaxKeySize), 1)
			copy(n[:], big[:])
			n[HeaderSize] = 0x80 // klen low byte: 1024 -> 1152, still inside the heap once used follows
			n.setUsed(n.used() + 0x80)
		}),
		"overlapping entries": build(PageLeaf, func(n *node) {
			off, _ := n.span(0)
			n.setSlot(1, off-HeaderSize, 0) // two slots, one entry
		}),
		"trailing bytes": build(PageLeaf, func(n *node) { n.setUsed(n.used() + 3) }),
		"dead bytes miscounted": build(PageInternal, func(n *node) {
			n.setDead(n.dead() - 1)
		}),
	}
}

// TestValidateRejections checks each hand-built page fails for its own
// reason, as *ErrPageCorrupt, under a correct CRC — and that the two
// undamaged ones pass.
func TestValidateRejections(t *testing.T) {
	reasons := map[string]string{
		"unknown type":                   "unexpected page type",
		"internal without child 0":       "without child 0",
		"internal with a key on child 0": "without child 0",
		"slot directory inside the heap": "slot directory overlaps",
		"slot out of range":              "slot out of range",
		"truncated entry":                "truncated entry",
		"key too long":                   "exceeds MaxKeySize",
		"overlapping entries":            "overlapping entries",
		"trailing bytes":                 "neither live nor dead",
		"dead bytes miscounted":          "neither live nor dead",
	}
	for name, n := range corruptPages() {
		Seal(n[:])
		if err := Verify(n[:], 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		err := n.validate()
		want, bad := reasons[name]
		var pc *ErrPageCorrupt
		switch {
		case !bad && err != nil:
			t.Errorf("%s: %v", name, err)
		case bad && (!errors.As(err, &pc) || !strings.Contains(pc.Reason, want)):
			t.Errorf("%s: validate = %v, want *ErrPageCorrupt mentioning %q", name, err, want)
		}
	}
}

// FuzzPageValidate seals an arbitrary header and payload under a
// correct CRC. Either the fault path (Verify, then validate) rejects
// the frame with *ErrPageCorrupt, or every operation a tree runs on a
// frame — lookups, scans, inserts up to and through a split, deletes,
// compaction — stays inside it and leaves a frame that validates again.
func FuzzPageValidate(f *testing.F) {
	pf, err := Create(filepath.Join(f.TempDir(), "pages"))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = pf.Close() })
	for _, n := range corruptPages() {
		f.Add(n[8], uint16(n.count()), uint16(n.used()), uint16(n.dead()), n[HeaderSize:slotsEnd], []byte("bravo"), uint32(7))
	}
	f.Fuzz(func(t *testing.T, typ uint8, count, used, dead uint16, payload, key []byte, val uint32) {
		n := newNode(PageType(typ))
		binary.BigEndian.PutUint32(n[4:8], 1)
		n.setCount(int(count))
		n.setUsed(int(used))
		n.setDead(int(dead))
		copy(n[HeaderSize:slotsEnd], payload)
		Seal(n[:])
		err := Verify(n[:], 1)
		if err == nil {
			err = n.validate()
		}
		if err != nil {
			if pc := (*ErrPageCorrupt)(nil); !errors.As(err, &pc) {
				t.Fatalf("rejected with %T (%v), want *ErrPageCorrupt", err, err)
			}
			return
		}
		if len(key) == 0 || len(key) > MaxKeySize {
			key = []byte("k")
		}
		read := func(n *node) {
			for i := 0; i < n.count(); i++ {
				_, _ = n.key(i), n.val(i)
			}
			if !n.leaf() {
				_ = n.val(n.childIndex(key))
			}
		}
		read(n)
		c := *n
		if i, _ := c.search(key); !c.put(i, key, val) {
			right := newNode(c.typ())
			c.splitPut(right, i, key, val)
			read(right)
			if err := right.validate(); err != nil {
				t.Fatalf("right half of a split: %v", err)
			}
		}
		keep := 0
		if !c.leaf() {
			keep = 1 // slot 0 is child 0: a tree unlinks it by moving slot 1's child there
		}
		for c.count() > keep {
			c.remove(keep + int(val)%(c.count()-keep))
			read(&c)
		}
		c.compact()
		if err := c.validate(); err != nil {
			t.Fatalf("after put, removes and compaction: %v", err)
		}
		if !n.leaf() {
			return // its children are page ids nothing backs
		}
		// The same through a tree rooted at the frame. Errors are fine
		// (the invariants build refuses unsorted keys); panics are not.
		p := NewPager(pf, MinCachePages)
		p.mu.Lock()
		e, err := p.newPageLocked(n)
		p.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		tr := LoadTree(p, e.id, n.count())
		_, _, _ = tr.Get(key)
		_ = tr.ScanFrom(key, func([]byte, uint32) bool { return true })
		_ = tr.Insert(key, val)
		for i := 0; i < 5; i++ { // a page's worth of long keys: the leaf must split
			_ = tr.Insert(append(bytes.Repeat([]byte{byte(i)}, MaxKeySize-len(key)), key...), val)
		}
		_, _ = tr.Delete(key)
		_ = tr.Scan(func([]byte, uint32) bool { return true })
	})
}

// TestOpenRejectsV1Meta: a file whose only meta slot is a version-1
// slot — same layout, same CRC discipline, pages in the old format —
// has no meta a v2 reader may trust.
func TestOpenRejectsV1Meta(t *testing.T) {
	slot := encodeMeta(Meta{Epoch: 4, Pages: 3, Roots: [2]uint32{1, 2}, Counts: [2]uint64{5, 5}})
	if _, ok := decodeMeta(slot); !ok {
		t.Fatal("the v2 slot this test starts from does not decode")
	}
	binary.BigEndian.PutUint32(slot[4:8], 1)
	binary.BigEndian.PutUint32(slot[metaSlotLen-4:], crc32c.Sum(slot[:metaSlotLen-4]))
	path := filepath.Join(t.TempDir(), "pages")
	if err := os.WriteFile(path, append(slot, make([]byte, 3*PageSize-metaSlotLen)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNoMeta) {
		t.Fatalf("Open on a v1 file: %v, want ErrNoMeta", err)
	}
}
