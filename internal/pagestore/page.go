// Package pagestore is the paged storage layer under the label-index
// backend: fixed-size 4 KB pages with a typed header and a CRC-32C
// footer, an unlinked scratch file they spill to, a pager with an LRU
// cache and dirty-page writeback on eviction, and a copy-on-write
// B-tree keyed by raw label bytes.
//
// The checksum discipline mirrors the journal's segment format: every
// page carries a Castagnoli CRC over everything but the footer, so a
// torn or bit-flipped page is detected on read, never silently decoded.
// The page file is a cache and nothing else: no commit record, no name,
// and nothing — not even the next process — reads it back but the pager
// that wrote it. The journal's write-ahead log is the recovery truth;
// the pager's job is spilling a large index out of RAM.
package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/crc32c"
)

// Binary page layout, format version 2 — a slotted page. Entries are
// appended to a heap that grows up from the payload start; a directory
// of u16 slots, one per entry in key order, grows down from the footer.
// Slot i sits at 4092-2(i+1): its entry's payload offset in the low 12
// bits, bits 8-11 of the key's length in the high 4.
//
//	offset size field
//	0      4    magic "DXPG"
//	4      4    page id
//	8      1    page type
//	9      1    flags (reserved, zero)
//	10     2    slot count
//	12     2    heap end: payload bytes the heap occupies, dead ones included
//	14     2    dead bytes: heap bytes no slot points into
//	16     4076 payload: entry heap → free space ← slot directory
//	4092   4    CRC-32C over bytes [0, 4092)
//
// An entry is the low byte of the key's length | key | u32: the key's
// value in a leaf, in an internal page the child holding the keys >=
// key — so an internal page's slot 0 has the empty key, which no leaf
// holds. Deleting an entry removes its slot and counts its bytes dead;
// an insert that needs them compacts the heap in slot order first.
// Free bytes keep whatever they last held.
const (
	// PageSize is the fixed on-disk page size.
	PageSize = 4096
	// HeaderSize is the typed page header.
	HeaderSize = 16
	// FooterSize is the CRC-32C footer.
	FooterSize = 4
	// PayloadSize is the usable payload per page.
	PayloadSize = PageSize - HeaderSize - FooterSize

	pageMagic = 0x44585047 // "DXPG"
	slotsEnd  = PageSize - FooterSize
)

// PageType tags what a page holds.
type PageType uint8

// Page types.
const (
	PageFree PageType = iota
	PageLeaf
	PageInternal
)

// ErrPageCorrupt reports a page that failed header or checksum
// verification.
type ErrPageCorrupt struct {
	ID     uint32
	Reason string
}

func (e *ErrPageCorrupt) Error() string {
	return fmt.Sprintf("pagestore: page %d corrupt: %s", e.ID, e.Reason)
}

// Seal writes the CRC footer of buf (PageSize bytes) over the header
// and payload as they stand.
func Seal(buf []byte) {
	binary.BigEndian.PutUint32(buf[slotsEnd:PageSize], crc32c.Sum(buf[:slotsEnd]))
}

// Verify checks a sealed page buffer against the id it was read as:
// the CRC footer, then magic and stored id. Any single
// corrupted byte anywhere in the page fails the CRC (the footer bytes
// themselves included, since they must then disagree with the
// recomputed sum).
func Verify(buf []byte, id uint32) error {
	if len(buf) != PageSize {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("short page: %d bytes", len(buf))}
	}
	crc := crc32c.Sum(buf[:slotsEnd])
	if got := binary.BigEndian.Uint32(buf[slotsEnd:]); got != crc {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", got, crc)}
	}
	if m := binary.BigEndian.Uint32(buf[0:4]); m != pageMagic {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("bad magic %08x", m)}
	}
	if stored := binary.BigEndian.Uint32(buf[4:8]); stored != id {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("page stored as id %d", stored)}
	}
	return nil
}

// node is a B-tree page: the 4 KB frame itself, in the cache exactly as
// in the file. Every header field is kept current by the mutation that
// changes it, so sealing a frame touches only its footer.
type node [PageSize]byte

// newNode returns an empty page of the given type; the pager stamps
// its id.
func newNode(typ PageType) *node {
	n := new(node)
	binary.BigEndian.PutUint32(n[0:4], pageMagic)
	n[8] = byte(typ)
	return n
}

func (n *node) id() uint32    { return binary.BigEndian.Uint32(n[4:8]) }
func (n *node) typ() PageType { return PageType(n[8]) }
func (n *node) leaf() bool    { return n.typ() == PageLeaf }
func (n *node) count() int    { return int(binary.BigEndian.Uint16(n[10:12])) }
func (n *node) used() int     { return int(binary.BigEndian.Uint16(n[12:14])) }
func (n *node) dead() int     { return int(binary.BigEndian.Uint16(n[14:16])) }

func (n *node) setCount(v int) { binary.BigEndian.PutUint16(n[10:12], uint16(v)) }
func (n *node) setUsed(v int)  { binary.BigEndian.PutUint16(n[12:14], uint16(v)) }
func (n *node) setDead(v int)  { binary.BigEndian.PutUint16(n[14:16], uint16(v)) }

// live is the bytes n's entries occupy, their slots included.
func (n *node) live() int { return n.used() - n.dead() + 2*n.count() }

// entryOverhead is what an entry adds to its key: the low byte of the
// key's length in front and a u32 behind, plus its slot.
const entryOverhead = 1 + 4 + 2

func slotPos(i int) int { return slotsEnd - 2*(i+1) }

// setSlot points slot i at the entry at payload offset off, whose key
// is klen bytes.
func (n *node) setSlot(i, off, klen int) {
	binary.BigEndian.PutUint16(n[slotPos(i):], uint16(klen>>8<<12|off))
}

// span returns the frame bytes [off, end) entry i occupies.
func (n *node) span(i int) (off, end int) {
	s := int(binary.BigEndian.Uint16(n[slotPos(i):]))
	off = HeaderSize + s&0xfff
	return off, off + 1 + (s>>12<<8 | int(n[off])) + 4
}

// key returns key i, which aliases the frame.
func (n *node) key(i int) []byte {
	off, end := n.span(i)
	return n[off+1 : end-4 : end-4]
}

// val returns entry i's value: in an internal page, child i.
func (n *node) val(i int) uint32 {
	_, end := n.span(i)
	return binary.BigEndian.Uint32(n[end-4 : end])
}

func (n *node) setVal(i int, v uint32) {
	_, end := n.span(i)
	binary.BigEndian.PutUint32(n[end-4:end], v)
}

// appendFrom copies entry j of src onto the end of n's heap and slot
// directory; the caller knows it fits.
func (n *node) appendFrom(src *node, j int) {
	off, end := src.span(j)
	cnt, used := n.count(), n.used()
	copy(n[HeaderSize+used:], src[off:end])
	n.setSlot(cnt, used, end-off-5)
	n.setCount(cnt + 1)
	n.setUsed(used + end - off)
}

// compact rewrites the heap in slot order, reclaiming its dead bytes.
func (n *node) compact() {
	old := *n
	n.setCount(0)
	n.setUsed(0)
	n.setDead(0)
	for j, cnt := 0, old.count(); j < cnt; j++ {
		n.appendFrom(&old, j)
	}
}

// put stores a new entry in slot i, copying key into the frame, and
// reports false — n untouched — when even a compacted n has no room.
func (n *node) put(i int, key []byte, val uint32) bool {
	cnt, need := n.count(), len(key)+entryOverhead
	if n.live()+need > PayloadSize {
		return false
	}
	if n.used()+need+2*cnt > PayloadSize {
		n.compact()
	}
	used := n.used()
	off := HeaderSize + used
	n[off] = byte(len(key))
	off += 1 + copy(n[off+1:], key)
	binary.BigEndian.PutUint32(n[off:], val)
	// Slots i.. move one place down to open slot i.
	copy(n[slotPos(cnt):], n[slotPos(cnt-1):slotPos(i-1)])
	n.setSlot(i, used, len(key))
	n.setCount(cnt + 1)
	n.setUsed(used + need - 2)
	return true
}

// remove drops slot i; its entry's bytes stay in the heap, dead.
func (n *node) remove(i int) {
	cnt := n.count()
	off, end := n.span(i)
	n.setDead(n.dead() + end - off)
	copy(n[slotPos(cnt-2):], n[slotPos(cnt-1):slotPos(i)])
	n.setCount(cnt - 1)
}

// validate checks the structure of a CRC-verified frame before any
// entry of it is interpreted: every slot points at an entry that lies
// whole inside the heap and shares no byte with another, and the
// header's counts add up. After it, no accessor can index out of range.
func (n *node) validate() error {
	corrupt := func(reason string) error { return &ErrPageCorrupt{ID: n.id(), Reason: reason} }
	if t := n.typ(); t != PageLeaf && t != PageInternal {
		return corrupt(fmt.Sprintf("unexpected page type %d", t))
	}
	cnt, used := n.count(), n.used()
	if used+2*cnt > PayloadSize {
		return corrupt("slot directory overlaps the entry heap")
	}
	var claimed [PageSize / 64]uint64 // one bit per frame byte an entry holds
	hi, live := HeaderSize+used, 0
	for i := 0; i < cnt; i++ {
		if off := HeaderSize + int(binary.BigEndian.Uint16(n[slotPos(i):]))&0xfff; off >= hi {
			return corrupt("slot out of range")
		}
		off, end := n.span(i)
		if end > hi {
			return corrupt("truncated entry")
		}
		if end-off-5 > MaxKeySize {
			return corrupt("entry key exceeds MaxKeySize")
		}
		for live += end - off; off < end; {
			w, bit := off>>6, off&63
			span := min(64-bit, end-off)
			mask := (^uint64(0) >> (64 - span)) << bit
			if claimed[w]&mask != 0 {
				return corrupt("overlapping entries")
			}
			claimed[w] |= mask
			off += span
		}
	}
	if live+n.dead() != used {
		return corrupt("heap bytes neither live nor dead")
	}
	if !n.leaf() && (cnt == 0 || len(n.key(0)) != 0) {
		return corrupt("internal node without child 0")
	}
	return nil
}

// checkPage is the self-check the `invariants` build runs on every
// frame the pager writes back and every frame a tree copies on write:
// what a fault validates — every entry inside the heap and disjoint
// from the others, live + dead + free + slot bytes = PayloadSize — plus
// slot keys strictly ascending.
func checkPage(n *node) error {
	if err := n.validate(); err != nil {
		return err
	}
	for i := 1; i < n.count(); i++ {
		if bytes.Compare(n.key(i-1), n.key(i)) >= 0 {
			return fmt.Errorf("pagestore: page %d: slot %d's key does not sort after slot %d's", n.id(), i, i-1)
		}
	}
	return nil
}
