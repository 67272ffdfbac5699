// Package labelstore provides a small file-backed record store for
// node labels. The update experiments (Figure 7 of the CDBS paper)
// measure *total* time — processing plus I/O — so every label write
// caused by an insertion or a re-label goes through a Store, which
// counts records, bytes and syncs.
//
// Since v2 the store is crash-safe: records carry a CRC-32C footer, a
// segment header versions the file, Open appends to an existing store
// and Recover repairs a store that was torn by a crash, truncating at
// most one partial tail record. See format.go for the layout and
// DESIGN.md for the recovery semantics. Write and Sync latencies and
// volumes feed the internal/metrics registry.
package labelstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/metrics"
)

// Store metrics, registered once against the default registry. The
// sync histogram is the per-transaction I/O cost Figure 7 adds to
// label processing time.
var (
	mRecords     = metrics.Default.Counter("labelstore_records_total")
	mBytes       = metrics.Default.Counter("labelstore_bytes_total")
	mSyncs       = metrics.Default.Counter("labelstore_syncs_total")
	mSyncSeconds = metrics.Default.Histogram("labelstore_sync_seconds", nil)
	mRecoveries  = metrics.Default.Counter("labelstore_recoveries_total")
	mTruncBytes  = metrics.Default.Counter("labelstore_recovery_truncated_bytes_total")
	mTruncRecs   = metrics.Default.Counter("labelstore_recovery_truncated_records_total")
)

// File is the minimal contract a Store writes through: an *os.File
// satisfies it, and faultfs.File wraps one to inject write and sync
// failures deterministically in crash tests.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Store is an append-only label log in the v2 format. Not safe for
// concurrent use.
type Store struct {
	f       File
	w       *bufio.Writer
	buf     []byte // record scratch, reused across Writes
	records int64
	bytes   int64
	syncs   int64
	closed  bool
}

// Create opens (truncating) a store file and writes the v2 header.
func Create(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("labelstore: %w", err)
	}
	s, err := NewStore(f)
	if err != nil {
		_ = f.Close() // the header-write error is the one to report
		return nil, err
	}
	return s, nil
}

// NewStore starts a fresh v2 store on an already-open file, writing
// and syncing the segment header through it immediately — the header
// is not buffered, so the on-disk file is a valid empty v2 store from
// the moment NewStore returns, and a crash before the first Sync
// cannot leave a headerless (zero-length) file behind. The caller
// owns nothing afterwards: Close closes f. Fault-injection tests hand
// in a faultfs.File here.
func NewStore(f File) (*Store, error) {
	if _, err := f.Write(header()); err != nil {
		return nil, fmt.Errorf("labelstore: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("labelstore: syncing header: %w", err)
	}
	return &Store{f: f, w: bufio.NewWriter(f)}, nil
}

// AppendStore wraps an already-open store file for appending without
// writing a header. The caller is responsible for the file being a
// valid store positioned at its end — typically after running Recover
// on the path and seeking to io.SeekEnd. It exists so crash-recovery
// callers (the edit journal) can resume appending through a wrapped
// File (fault injection) after doing their own recovery pass; plain
// callers should use Open, which does all of that itself.
func AppendStore(f File) *Store {
	return &Store{f: f, w: bufio.NewWriter(f)}
}

// Open appends to an existing store. It first runs crash recovery on
// the file — validating the header and every record checksum and
// truncating a torn tail in place (see Recover) — so an Open after a
// kill always lands on a clean record boundary. Stats count only what
// this Store session writes; use ReadAll or Recover for the
// pre-existing contents.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("labelstore: %w", err)
	}
	if _, _, err := recoverOpenFile(f); err != nil {
		_ = f.Close() // the recovery error is the one to report
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("labelstore: %w", err)
	}
	return &Store{f: f, w: bufio.NewWriter(f)}, nil
}

// ErrClosed reports use after Close.
var ErrClosed = errors.New("labelstore: store is closed")

// Write appends one label record (buffered; Sync makes it durable).
func (s *Store) Write(id uint64, payload []byte) error {
	if s.closed {
		return ErrClosed
	}
	s.buf = appendRecord(s.buf[:0], id, payload)
	if _, err := s.w.Write(s.buf); err != nil {
		return fmt.Errorf("labelstore: %w", err)
	}
	s.records++
	s.bytes += int64(len(s.buf))
	mRecords.Inc()
	mBytes.Add(int64(len(s.buf)))
	return nil
}

// Sync flushes buffered records and fsyncs the file — the per-
// transaction I/O cost of an update. Records written before a
// successful Sync are the store's durability unit: Recover never
// loses them. Sync is Flush followed by SyncFile; callers that need
// to fsync outside their append lock (group commit) use the two
// halves directly.
//
// vet:durable
func (s *Store) Sync() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.SyncFile()
}

// Flush moves buffered records from the Store's write buffer to the
// operating system without forcing them to stable storage. Flushed
// records survive a process crash but not a power cut; SyncFile makes
// them durable. Flush shares the Store's single-threaded contract
// with Write.
func (s *Store) Flush() error {
	if s.closed {
		return ErrClosed
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("labelstore: %w", err)
	}
	return nil
}

// SyncFile fsyncs the underlying file without touching the write
// buffer — the durability half of Sync. Unlike Write and Flush, one
// SyncFile may run concurrently with Writes on the same Store (the
// group-commit pipeline fsyncs outside its append lock): it only
// reads the file handle, and a record racing the fsync simply isn't
// covered by it. Two SyncFile calls must not run concurrently.
//
// vet:durable
func (s *Store) SyncFile() error {
	if s.closed {
		return ErrClosed
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("labelstore: %w", err)
	}
	s.syncs++
	mSyncs.Inc()
	mSyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Stats returns the record count, byte count and sync count written
// through this Store (for Open, since the Open).
func (s *Store) Stats() (records, bytes, syncs int64) {
	return s.records, s.bytes, s.syncs
}

// Close flushes and closes the underlying file.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Flush(); err != nil {
		_ = s.f.Close() // best-effort: the flush error is the one to report
		return fmt.Errorf("labelstore: %w", err)
	}
	return s.f.Close()
}

// Record is one stored label.
type Record struct {
	ID      uint64
	Payload []byte
}

// ReadAll parses a store file back into records. It is strict: a file
// cut inside a record — a torn varint, payload or checksum — or inside
// its header is an error (io.ErrUnexpectedEOF or ErrCorrupt in the
// chain), never a silently shortened result. Use Recover to repair
// such a file. A file that does not start with the segment header is
// ErrCorrupt.
func ReadAll(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("labelstore: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := readHeader(r); err != nil {
		return nil, err
	}
	var out []Record
	for {
		rec, _, err := readRecord(r)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
