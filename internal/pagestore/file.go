package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// File is one page file: fixed-size pages addressed by id, written
// when the pager evicts them and read back by that pager alone. It has
// no name — Create unlinks it before any page is written — so nothing
// outlives the descriptor, and a killed process leaves no file behind.
// Page 0 is never allocated: id 0 means "no page".
type File struct {
	f *os.File
}

// Create makes a fresh, already unlinked page file in dir.
func Create(dir string) (*File, error) {
	f, err := os.CreateTemp(dir, "labels-*.pages")
	if err != nil {
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	// A sweep of dir for stale page files may have unlinked it already.
	if err := os.Remove(f.Name()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		_ = f.Close()
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	return &File{f: f}, nil
}

// ReadPage reads and verifies page id into buf (PageSize bytes).
func (pf *File) ReadPage(id uint32, buf []byte) error {
	if id == 0 {
		return &ErrPageCorrupt{ID: id, Reason: "page 0 is never allocated"}
	}
	if _, err := pf.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagestore: reading page %d: %w", id, err)
	}
	return Verify(buf, id)
}

// WritePage writes a sealed page buffer at its stored id. Nothing
// syncs: the file is scratch, and the journal is the store of record.
func (pf *File) WritePage(buf []byte) error {
	id := binary.BigEndian.Uint32(buf[4:8])
	if id == 0 {
		return &ErrPageCorrupt{ID: id, Reason: "page 0 is never allocated"}
	}
	if _, err := pf.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("pagestore: writing page %d: %w", id, err)
	}
	return nil
}

// Close closes the file; its pages go with it.
func (pf *File) Close() error { return pf.f.Close() }
