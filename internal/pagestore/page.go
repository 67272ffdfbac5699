// Package pagestore is the paged storage layer under the label-index
// backend: fixed-size 4 KB pages with a typed header and a CRC-32C
// footer, a page file with a dual-slot commit record, a pager with an
// LRU cache and dirty-page writeback, and a copy-on-write B-tree keyed
// by raw label bytes.
//
// The checksum discipline mirrors the journal's segment format: every
// page carries a Castagnoli CRC over everything but the footer, so a
// torn or bit-flipped page is detected on read, never silently decoded. Durability
// is layered the same way as the rest of the system: the journal's
// write-ahead log stays the recovery truth, and a page file that fails
// verification is simply rebuilt from the replayed document — the
// pager's job is spilling a large index out of RAM, not replacing the
// WAL.
package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Binary page layout. The 16-byte header matches the exemplar format:
//
//	offset size field
//	0      4    magic "DXPG"
//	4      4    page id
//	8      1    page type
//	9      1    flags (reserved, zero)
//	10     2    key count
//	12     2    payload bytes used
//	14     2    reserved (zero)
//	16     4076 payload
//	4092   4    CRC-32C over bytes [0, 4092)
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
)

// PageType tags what a page holds.
type PageType uint8

// Page types.
const (
	PageFree PageType = iota
	PageLeaf
	PageInternal
)

// castagnoli is the same CRC-32C polynomial the journal's segment
// format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrPageCorrupt reports a page that failed header or checksum
// verification.
type ErrPageCorrupt struct {
	ID     uint32
	Reason string
}

func (e *ErrPageCorrupt) Error() string {
	return fmt.Sprintf("pagestore: page %d corrupt: %s", e.ID, e.Reason)
}

// Seal writes the header and CRC footer into buf (which must be
// PageSize long), leaving the payload bytes [HeaderSize, HeaderSize+used)
// as the caller filled them.
func Seal(buf []byte, id uint32, typ PageType, nkeys, used int) {
	_ = buf[PageSize-1]
	binary.BigEndian.PutUint32(buf[0:4], pageMagic)
	binary.BigEndian.PutUint32(buf[4:8], id)
	buf[8] = byte(typ)
	buf[9] = 0
	binary.BigEndian.PutUint16(buf[10:12], uint16(nkeys))
	binary.BigEndian.PutUint16(buf[12:14], uint16(used))
	binary.BigEndian.PutUint16(buf[14:16], 0)
	crc := crc32.Checksum(buf[:PageSize-FooterSize], castagnoli)
	binary.BigEndian.PutUint32(buf[PageSize-FooterSize:], crc)
}

// Verify checks a sealed page buffer against the id it was read as:
// magic, stored id, payload bounds and the CRC footer. Any single
// corrupted byte anywhere in the page fails the CRC (the footer bytes
// themselves included, since they must then disagree with the
// recomputed sum).
func Verify(buf []byte, id uint32) error {
	if len(buf) != PageSize {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("short page: %d bytes", len(buf))}
	}
	crc := crc32.Checksum(buf[:PageSize-FooterSize], castagnoli)
	if got := binary.BigEndian.Uint32(buf[PageSize-FooterSize:]); got != crc {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", got, crc)}
	}
	if m := binary.BigEndian.Uint32(buf[0:4]); m != pageMagic {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("bad magic %08x", m)}
	}
	if stored := binary.BigEndian.Uint32(buf[4:8]); stored != id {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("page stored as id %d", stored)}
	}
	if used := int(binary.BigEndian.Uint16(buf[12:14])); used > PayloadSize {
		return &ErrPageCorrupt{ID: id, Reason: fmt.Sprintf("used %d exceeds payload", used)}
	}
	return nil
}

// pageID reads the stored page id of a sealed buffer.
func pageID(buf []byte) uint32 { return binary.BigEndian.Uint32(buf[4:8]) }

// pageType reads the stored type of a sealed buffer.
func pageType(buf []byte) PageType { return PageType(buf[8]) }

// pageNKeys reads the stored key count of a sealed buffer.
func pageNKeys(buf []byte) int { return int(binary.BigEndian.Uint16(buf[10:12])) }

// pageUsed reads the stored payload length of a sealed buffer.
func pageUsed(buf []byte) int { return int(binary.BigEndian.Uint16(buf[12:14])) }

// payload returns the used payload bytes of a sealed buffer.
func payload(buf []byte) []byte { return buf[HeaderSize : HeaderSize+pageUsed(buf)] }
