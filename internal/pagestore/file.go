package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/crc32c"
)

// Meta is the commit record of a page file: the state a reader may
// trust. It lives in page 0 as two alternating 64-byte slots; a commit
// writes the slot the previous commit did not, so a torn meta write
// leaves the other slot intact and the reader picks the highest-epoch
// slot that verifies. Pages past the committed state may exist on disk
// (dirty writeback runs ahead of commits) but are unreachable from any
// committed root.
type Meta struct {
	// Epoch increments on every commit; the newest valid slot wins.
	Epoch uint64
	// Pages is the number of allocated pages, page 0 included; the
	// next allocation is page id Pages.
	Pages uint32
	// Roots holds the committed B-tree root page ids (0 = empty tree).
	// internal/store keeps one tree, in slot 0, and writes slot 1 as 0.
	Roots [2]uint32
	// Counts holds the committed entry count per tree.
	Counts [2]uint64
}

// Meta slot layout (64 bytes):
//
//	offset size field
//	0      4    magic "DXPM"
//	4      4    format version (2: slotted pages)
//	8      8    epoch
//	16     4    pages
//	20     4    roots[0]
//	24     4    roots[1]
//	28     8    counts[0]
//	36     8    counts[1]
//	44     16   reserved (zero)
//	60     4    CRC-32C over bytes [0, 60)
const (
	metaMagic   = 0x4458504D // "DXPM"
	metaVersion = 2
	metaSlotLen = 64
)

// ErrNoMeta reports a page file with no verifiable meta slot — a
// freshly torn or foreign file. Callers rebuild from the document.
var ErrNoMeta = errors.New("pagestore: no valid meta slot")

// File is one page file: fixed-size pages addressed by id, with the
// dual-slot commit record in page 0.
type File struct {
	f    *os.File
	meta Meta
	slot int // slot the current meta lives in; Commit writes 1-slot
}

func encodeMeta(m Meta) []byte {
	buf := make([]byte, metaSlotLen)
	binary.BigEndian.PutUint32(buf[0:4], metaMagic)
	binary.BigEndian.PutUint32(buf[4:8], metaVersion)
	binary.BigEndian.PutUint64(buf[8:16], m.Epoch)
	binary.BigEndian.PutUint32(buf[16:20], m.Pages)
	binary.BigEndian.PutUint32(buf[20:24], m.Roots[0])
	binary.BigEndian.PutUint32(buf[24:28], m.Roots[1])
	binary.BigEndian.PutUint64(buf[28:36], m.Counts[0])
	binary.BigEndian.PutUint64(buf[36:44], m.Counts[1])
	binary.BigEndian.PutUint32(buf[metaSlotLen-4:], crc32c.Sum(buf[:metaSlotLen-4]))
	return buf
}

func decodeMeta(buf []byte) (Meta, bool) {
	if len(buf) < metaSlotLen {
		return Meta{}, false
	}
	if crc32c.Sum(buf[:metaSlotLen-4]) != binary.BigEndian.Uint32(buf[metaSlotLen-4:metaSlotLen]) {
		return Meta{}, false
	}
	if binary.BigEndian.Uint32(buf[0:4]) != metaMagic || binary.BigEndian.Uint32(buf[4:8]) != metaVersion {
		return Meta{}, false
	}
	for _, b := range buf[44 : metaSlotLen-4] {
		if b != 0 {
			return Meta{}, false // reserved bytes must stay zero
		}
	}
	var m Meta
	m.Epoch = binary.BigEndian.Uint64(buf[8:16])
	m.Pages = binary.BigEndian.Uint32(buf[16:20])
	m.Roots[0] = binary.BigEndian.Uint32(buf[20:24])
	m.Roots[1] = binary.BigEndian.Uint32(buf[24:28])
	m.Counts[0] = binary.BigEndian.Uint64(buf[28:36])
	m.Counts[1] = binary.BigEndian.Uint64(buf[36:44])
	if m.Pages == 0 {
		return Meta{}, false // page 0 always exists in a committed file
	}
	return m, true
}

// Create truncates path into a fresh page file holding only page 0
// with an initial empty commit.
func Create(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	pf := &File{f: f, slot: 1}
	if err := pf.Commit(Meta{Pages: 1}); err != nil {
		_ = f.Close()
		return nil, err
	}
	return pf, nil
}

// Open opens an existing page file and restores the newest committed
// meta. A file with no verifiable meta slot fails with ErrNoMeta
// (matched via errors.Is); individual pages are verified lazily on
// ReadPage.
func Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	buf := make([]byte, 2*metaSlotLen)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.ErrUnexpectedEOF {
		_ = f.Close()
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("pagestore: %s: %w", path, ErrNoMeta)
		}
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	m0, ok0 := decodeMeta(buf[:metaSlotLen])
	m1, ok1 := decodeMeta(buf[metaSlotLen:])
	pf := &File{f: f}
	switch {
	case ok0 && (!ok1 || m0.Epoch >= m1.Epoch):
		pf.meta, pf.slot = m0, 0
	case ok1:
		pf.meta, pf.slot = m1, 1
	default:
		_ = f.Close()
		return nil, fmt.Errorf("pagestore: %s: %w", path, ErrNoMeta)
	}
	return pf, nil
}

// Meta returns the current committed meta.
func (pf *File) Meta() Meta { return pf.meta }

// ReadPage reads and verifies page id into buf (PageSize bytes).
func (pf *File) ReadPage(id uint32, buf []byte) error {
	if id == 0 {
		return &ErrPageCorrupt{ID: id, Reason: "page 0 is the meta page"}
	}
	if _, err := pf.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagestore: reading page %d: %w", id, err)
	}
	return Verify(buf, id)
}

// WritePage writes a sealed page buffer at its stored id. It does not
// sync; Commit provides the barrier.
func (pf *File) WritePage(buf []byte) error {
	id := binary.BigEndian.Uint32(buf[4:8])
	if id == 0 {
		return &ErrPageCorrupt{ID: id, Reason: "page 0 is the meta page"}
	}
	if _, err := pf.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagestore: writing page %d: %w", id, err)
	}
	return nil
}

// Commit makes m the new committed state with the write-ordering rule
// every flush relies on: first fsync the data pages already written,
// then write the meta into the slot the previous commit did not use,
// then fsync again. A crash before the second fsync leaves the old
// slot winning; after it, the new one. The epoch is assigned here.
func (pf *File) Commit(m Meta) error {
	if err := pf.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: %w", err)
	}
	m.Epoch = pf.meta.Epoch + 1
	slot := 1 - pf.slot
	if _, err := pf.f.WriteAt(encodeMeta(m), int64(slot)*metaSlotLen); err != nil {
		return fmt.Errorf("pagestore: writing meta slot %d: %w", slot, err)
	}
	if err := pf.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: %w", err)
	}
	pf.meta, pf.slot = m, slot
	return nil
}

// Close closes the underlying file without committing.
func (pf *File) Close() error { return pf.f.Close() }
