package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/crc32c"
	"repro/internal/metrics"
)

// Segment file format, version 2 — the framing of every ckpt-N and
// log-N file, and of every ship chunk (ship.go).
//
//	header:  magic "LBLSTOR\x02" (7 bytes + version byte)
//	record:  uvarint id | uvarint payload length | payload | crc32c
//
// The 4-byte little-endian CRC-32C (Castagnoli) footer covers every
// preceding byte of the record — both varints and the payload — so a
// torn or bit-flipped record is detected, never silently parsed.
// Varints are written canonically (binary.PutUvarint); the reader
// re-checks the checksum over the bytes actually consumed, so a
// non-canonical encoding fails the CRC like any other corruption.
//
// This is the only format: a file whose head is neither the header nor
// a strict prefix of it (a header torn by a crash) is corrupt, and no
// reader or repair touches it.
const (
	segMagic      = "LBLSTOR" // 7 bytes; the 8th header byte is the version
	segVersion    = 2
	segHeaderSize = len(segMagic) + 1

	// maxPayload bounds one record's payload: the writer refuses a
	// longer one (ErrRecordTooLarge) and the reader treats a longer
	// length as corruption, so nothing is written that a reader would
	// refuse. It caps one edit batch and one checkpoint's meta (the
	// document's XML and id list).
	maxPayload = 1 << 24
)

// Segment metrics. The names predate the fold of the label log into
// the journal and are an operator-visible surface (dashboards, the
// benchmark's journal.fsyncs_per_edit), so they keep their prefix.
var (
	mRecords     = metrics.Default.Counter("labelstore_records_total")
	mBytes       = metrics.Default.Counter("labelstore_bytes_total")
	mSyncs       = metrics.Default.Counter("labelstore_syncs_total")
	mSyncSeconds = metrics.Default.Histogram("labelstore_sync_seconds", nil)
	mRecoveries  = metrics.Default.Counter("labelstore_recoveries_total")
	mTruncBytes  = metrics.Default.Counter("labelstore_recovery_truncated_bytes_total")
	mTruncRecs   = metrics.Default.Counter("labelstore_recovery_truncated_records_total")
	mOversize    = metrics.Default.Counter("journal_oversize_refused_total")
)

// ErrCorrupt reports segment bytes that are present but fail
// validation — a CRC mismatch, an implausible length, a malformed
// varint, or a head that is not the segment header.
var ErrCorrupt = errors.New("journal: corrupt segment")

// ErrRecordTooLarge reports a record whose payload exceeds the 16 MiB
// the segment reader accepts: an edit batch, or a checkpoint of the
// whole document. Nothing was written, so the journal stays usable.
var ErrRecordTooLarge = errors.New("journal: record exceeds the 16 MiB limit")

// segHeader returns the 8-byte segment header.
func segHeader() []byte {
	h := make([]byte, 0, segHeaderSize)
	h = append(h, segMagic...)
	return append(h, segVersion)
}

// record is one framed entry of a segment: a batch under its sequence
// number in a log or a ship chunk, the meta and END entries in a
// checkpoint, the snapshot and horizon entries in a ship chunk.
type record struct {
	ID      uint64
	Payload []byte
}

// appendRecord appends the encoding of one record to dst.
func appendRecord(dst []byte, id uint64, payload []byte) []byte {
	start := len(dst)
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], id)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	dst = append(dst, hdr[:n]...)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32c.Sum(dst[start:]))
}

// recordSize is the length of appendRecord's encoding of one record.
func recordSize(id uint64, payload []byte) int {
	var hdr [binary.MaxVarintLen64]byte
	return binary.PutUvarint(hdr[:], id) + binary.PutUvarint(hdr[:], uint64(len(payload))) + len(payload) + 4
}

// File is the minimal contract a segment is written through: an
// *os.File satisfies it, and Config.WrapFile substitutes a wrapper
// (faultfs.File) to inject write and sync failures deterministically
// in crash tests.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// segment is the append side of a segment file. Write frames each
// record straight into pending, the one buffer a segment holds; pending
// reaches the file once flushAt bytes wait, and at Flush and Close. The
// first error writing to the file sticks: every later Write, Flush and
// Close returns it. Not safe for concurrent use, except SyncFile as
// documented there.
type segment struct {
	f       File
	pending []byte // framed records not yet written to f
	err     error
	closed  bool
}

// flushAt is how many pending bytes send Write on to the file: the
// size of a bufio.Writer's buffer, so a log that no caller flushes
// (SyncInterval between ticks, SyncNone) reaches the operating system
// in the steps one would. A buffer grown past twice that held an outsize
// record, and is let go once the record is written rather than kept for
// the life of the log.
const flushAt = 4096

// appendSegment appends to a file that already holds a valid segment
// and is positioned at its end (see openStore and reopenStore). Close
// closes f.
func appendSegment(f File) *segment {
	return &segment{f: f}
}

// Write appends one record (buffered; Sync makes it durable). A payload
// over maxPayload is refused with ErrRecordTooLarge before anything is
// buffered.
func (s *segment) Write(id uint64, payload []byte) error {
	if s.closed {
		return ErrClosed
	}
	if len(payload) > maxPayload {
		mOversize.Inc()
		return fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(payload))
	}
	if s.err != nil {
		return s.err
	}
	size := recordSize(id, payload)
	if len(s.pending) == 0 && cap(s.pending) < size {
		// An empty buffer grows to exactly the record: under SyncAlways,
		// which writes each record out before the next, that is all it
		// ever holds.
		s.pending = make([]byte, 0, size)
	}
	s.pending = appendRecord(s.pending, id, payload)
	mRecords.Inc()
	mBytes.Add(int64(size))
	if len(s.pending) < flushAt {
		return nil
	}
	return s.writePending()
}

// writePending writes every pending byte to the file.
func (s *segment) writePending() error {
	if s.err != nil || len(s.pending) == 0 {
		return s.err
	}
	n, err := s.f.Write(s.pending)
	if err == nil && n < len(s.pending) {
		err = io.ErrShortWrite
	}
	if err != nil {
		s.err = fmt.Errorf("journal: %w", err)
		return s.err
	}
	s.pending = s.pending[:0]
	if cap(s.pending) > 2*flushAt {
		s.pending = nil
	}
	return nil
}

// Sync flushes buffered records and fsyncs the file. Records written
// before a successful Sync are the durability unit: repair never
// loses them. Sync is Flush followed by SyncFile; the group-commit
// pipeline, which fsyncs outside its append lock, uses the two halves
// directly.
func (s *segment) Sync() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.SyncFile()
}

// Flush moves buffered records to the operating system without
// forcing them to stable storage: they survive a process crash but
// not a power cut. Flush shares the single-threaded contract of Write.
func (s *segment) Flush() error {
	if s.closed {
		return ErrClosed
	}
	return s.writePending()
}

// SyncFile fsyncs the underlying file without touching the pending
// records — the durability half of Sync. Unlike Write and Flush, one
// SyncFile may run concurrently with Writes on the same segment (the
// group-commit pipeline fsyncs outside its append lock): it only
// reads the file handle, and a record racing the fsync simply isn't
// covered by it. Two SyncFile calls must not run concurrently.
func (s *segment) SyncFile() error {
	if s.closed {
		return ErrClosed
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	mSyncs.Inc()
	mSyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Close writes what is pending and closes the underlying file.
func (s *segment) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.writePending(); err != nil {
		_ = s.f.Close() // best-effort: the write error is the one to report
		return err
	}
	return s.f.Close()
}

// stop says what ended a scan.
type stop int

const (
	// cleanEOF: the data ends on a record boundary.
	cleanEOF stop = iota
	// tornHeader: the file is a strict prefix of the header, possibly
	// empty — the state a crash leaves between creation and the header
	// landing.
	tornHeader
	// badRecord: a torn or corrupt record follows the valid prefix.
	// While a writer lives the two are indistinguishable (a record
	// that is torn now is complete on the next scan); after a crash
	// both mean the tail from here on was never durable.
	badRecord
	// notSegment: the head is not the header — damaged magic, a
	// version this code does not write, foreign bytes, or a head that
	// could not be read. Nothing may modify such a file.
	notSegment
)

// scanned is the longest valid prefix of a segment.
type scanned struct {
	recs []record
	end  int64 // byte offset the prefix ends at
	why  stop
	err  error // what stopped the scan; nil exactly when why is cleanEOF
}

// scanSegment reads a header and then records off r until something
// stops it. It is the one reader of the format; its callers differ
// only in what they make of the stop: readCheckpoint and a plain open
// are strict (anything but cleanEOF is a failure), an open with
// Config.Recover repairs (repairSegment), and Ship's tail of the live
// log is tolerant (whatever parsed is served).
func scanSegment(r io.Reader) scanned {
	sr := &segReader{r: bufio.NewReader(r)}
	if why, err := sr.header(); err != nil {
		return scanned{why: why, err: err}
	}
	s := scanned{end: sr.n}
	for {
		rec, err := sr.record()
		if err == io.EOF {
			return s
		}
		if err != nil {
			s.why, s.err = badRecord, err
			return s
		}
		s.recs = append(s.recs, rec)
		s.end = sr.n
	}
}

// scanFile is scanSegment over the file at path, opened read-only;
// the error is the open's, for the caller to wrap.
func scanFile(path string) (scanned, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanned{}, err
	}
	defer f.Close() // read-only
	return scanSegment(f), nil
}

// segReader reads bytes off a bufio.Reader while counting them and
// folding them into a running CRC-32C, so a record's footer is
// verified over exactly the bytes consumed.
type segReader struct {
	r   *bufio.Reader
	crc uint32
	n   int64
}

// header consumes the segment header. It is the one place that
// decides what a file's head means.
func (s *segReader) header() (stop, error) {
	head, err := s.r.Peek(segHeaderSize)
	if err != nil && err != io.EOF {
		return notSegment, fmt.Errorf("journal: reading segment header: %w", err)
	}
	switch full := segHeader(); {
	case len(head) < segHeaderSize && string(head) == string(full[:len(head)]):
		return tornHeader, fmt.Errorf("journal: torn segment header: %w", io.ErrUnexpectedEOF)
	case len(head) < segHeaderSize || string(head[:len(segMagic)]) != segMagic:
		return notSegment, fmt.Errorf("%w: not a v2 segment", ErrCorrupt)
	case head[len(segMagic)] != segVersion:
		return notSegment, fmt.Errorf("journal: unsupported format version %d", head[len(segMagic)])
	}
	_, _ = s.r.Discard(segHeaderSize) // cannot fail: Peek buffered these bytes
	s.n = int64(segHeaderSize)
	return cleanEOF, nil
}

func (s *segReader) ReadByte() (byte, error) {
	b, err := s.r.ReadByte()
	if err != nil {
		return 0, err
	}
	s.crc = crc32c.Update(s.crc, []byte{b})
	s.n++
	return b, nil
}

// readFull fills p; running out of data inside it is a tear, never a
// clean end.
func (s *segReader) readFull(p []byte) error {
	k, err := io.ReadFull(s.r, p)
	s.crc = crc32c.Update(s.crc, p[:k])
	s.n += int64(k)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// uvarint decodes one uvarint, distinguishing a clean boundary from a
// torn one: io.EOF with zero bytes consumed means "no more data
// here", while io.EOF after one or more varint bytes becomes
// io.ErrUnexpectedEOF — the file was cut mid-varint. (The stdlib's
// binary.ReadUvarint makes the same distinction in current Go; this
// implementation keeps the guarantee local, explicit and tested
// rather than inherited.)
func (s *segReader) uvarint() (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := s.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrCorrupt)
}

// record parses one record. A clean end of data (zero bytes
// available) returns io.EOF; any partial or invalid record returns a
// non-EOF error.
func (s *segReader) record() (record, error) {
	s.crc = 0
	id, err := s.uvarint()
	if err != nil {
		return record{}, err // io.EOF here means a clean boundary
	}
	n, err := s.uvarint()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return record{}, fmt.Errorf("journal: torn record length: %w", err)
	}
	if n > maxPayload {
		return record{}, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if err := s.readFull(payload); err != nil {
		return record{}, fmt.Errorf("journal: torn record payload: %w", err)
	}
	want := s.crc
	var footer [4]byte
	if err := s.readFull(footer[:]); err != nil {
		return record{}, fmt.Errorf("journal: torn record checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(footer[:]); got != want {
		return record{}, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, got, want)
	}
	return record{ID: id, Payload: payload}, nil
}

// repairSegment makes f, whose scan stopped short of a clean end, a
// valid segment again and reports how many bytes that cut: a bad
// record and everything behind it is truncated away, a torn header is
// rewritten whole. Records that were fully on disk — in particular
// everything written before a successful Sync — sit before the cut;
// the log is append-only, so a damaged middle means the tail behind
// it was never durable either. A file that is not a segment is
// refused with the scan's error and left byte for byte as it was.
func repairSegment(f *os.File, s scanned) (cut int64, err error) {
	if s.why == notSegment {
		return 0, s.err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	cut = info.Size() - s.end
	if err := f.Truncate(s.end); err != nil {
		return 0, fmt.Errorf("journal: truncating torn segment: %w", err)
	}
	if s.why == tornHeader {
		// Nothing was ever readable; without the header, appends would
		// land in a file no reader accepts.
		if _, err := f.WriteAt(segHeader(), 0); err != nil {
			return 0, fmt.Errorf("journal: rewriting segment header: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	mRecoveries.Inc()
	if cut > 0 {
		mTruncBytes.Add(cut)
		mTruncRecs.Inc()
	}
	return cut, nil
}

// wrapFile applies the configured fault-injection wrapper, if any.
func wrapFile(cfg Config, f *os.File) File {
	if cfg.WrapFile != nil {
		return cfg.WrapFile(f)
	}
	return f
}

// openStore creates path as a fresh segment (truncating whatever was
// there) through the configured wrapper, holding recs and, when there
// are any, synced. The header is written and synced first, unbuffered,
// so a crash before the first Sync cannot leave a headerless
// (zero-length) file behind.
func openStore(cfg Config, path string, recs ...record) (*segment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	lf := wrapFile(cfg, f)
	if _, err = lf.Write(segHeader()); err == nil {
		err = lf.Sync()
	}
	if err != nil {
		_ = lf.Close() // the header's error is the one to report
		return nil, fmt.Errorf("journal: segment header: %w", err)
	}
	s := appendSegment(lf)
	for _, r := range recs {
		if err = s.Write(r.ID, r.Payload); err != nil {
			break
		}
	}
	if err == nil && len(recs) > 0 {
		err = s.Sync()
	}
	if err != nil {
		_ = s.Close() // the write or sync error is the one to report
		return nil, err
	}
	return s, nil
}

// reopened is an existing segment opened for appending where it left
// off.
type reopened struct {
	store *segment
	recs  []record // the records it held
	// damaged reports that the scan stopped short of a clean end and
	// the file was repaired; cut is how many bytes that removed.
	damaged bool
	cut     int64
}

// reopenStore opens the existing segment at path once, read-write:
// the descriptor that scans it is the one that repairs it and the one
// appends then go through (wrapped like every file the journal
// writes). A segment whose scan stops anywhere but a clean end is
// repaired only with cfg.Recover; without it reopenStore fails with
// ErrRecoveryTruncated before modifying anything.
func reopenStore(cfg Config, path string) (reopened, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return reopened{}, fmt.Errorf("journal: %w", err)
	}
	s := scanSegment(f)
	r := reopened{recs: s.recs, damaged: s.why != cleanEOF}
	if r.damaged {
		if !cfg.Recover {
			err = fmt.Errorf("%w (open with recovery enabled to repair): %v", ErrRecoveryTruncated, s.err)
		} else {
			r.cut, err = repairSegment(f, s)
		}
	}
	if err == nil {
		// The scan read ahead, and a repair moved the end.
		if _, serr := f.Seek(0, io.SeekEnd); serr != nil {
			err = fmt.Errorf("journal: %w", serr)
		}
	}
	if err != nil {
		_ = f.Close() // the scan, repair or seek error is the one to report
		return reopened{}, err
	}
	r.store = appendSegment(wrapFile(cfg, f))
	return r, nil
}
