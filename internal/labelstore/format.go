package labelstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// On-disk format v2.
//
// A store file is a segment header followed by zero or more records:
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
	magic         = "LBLSTOR" // 7 bytes; the 8th header byte is the version
	FormatVersion = 2
	headerSize    = len(magic) + 1

	// MaxPayload bounds one record's payload; longer lengths are
	// treated as corruption. Labels are tens of bytes, so 16 MiB is
	// generous headroom, not a real limit.
	MaxPayload = 1 << 24
)

// castagnoli is the CRC-32C table shared by writer and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header returns the 8-byte v2 segment header.
func header() []byte {
	h := make([]byte, 0, headerSize)
	h = append(h, magic...)
	return append(h, FormatVersion)
}

// errTornHeader reports a segment cut before its header fully hit the
// disk: the file is a strict prefix of the header, possibly empty — the
// state a crash leaves between creation and the header landing.
var errTornHeader = fmt.Errorf("labelstore: torn segment header: %w", io.ErrUnexpectedEOF)

// readHeader consumes the segment header off r. It is the one place
// that decides what a file's head means: errTornHeader for a strict
// prefix of the header, ErrCorrupt for any other head that is not the
// magic, and an error naming the version for a magic followed by a
// version this code does not write.
func readHeader(r *bufio.Reader) error {
	head, err := r.Peek(headerSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("labelstore: %w", err)
	}
	switch full := header(); {
	case len(head) < headerSize && string(head) == string(full[:len(head)]):
		return errTornHeader
	case len(head) < headerSize || string(head[:len(magic)]) != magic:
		return fmt.Errorf("%w: not a v2 segment", ErrCorrupt)
	case head[len(magic)] != FormatVersion:
		return fmt.Errorf("labelstore: unsupported format version %d", head[len(magic)])
	}
	if _, err := r.Discard(headerSize); err != nil {
		return fmt.Errorf("labelstore: %w", err)
	}
	return nil
}

// appendRecord appends the v2 encoding of one record to dst.
func appendRecord(dst []byte, id uint64, payload []byte) []byte {
	start := len(dst)
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], id)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	dst = append(dst, hdr[:n]...)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// ErrCorrupt reports a record that is present but fails validation —
// a CRC mismatch, an implausible length or a malformed varint.
var ErrCorrupt = errors.New("labelstore: corrupt record")

// crcByteReader reads bytes off a bufio.Reader while folding them
// into a running CRC-32C, and counts them, so the reader can verify
// the footer over exactly the bytes it consumed.
type crcByteReader struct {
	r   *bufio.Reader
	crc uint32
	n   int64
}

func (c *crcByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	c.crc = crc32.Update(c.crc, castagnoli, []byte{b})
	c.n++
	return b, nil
}

func (c *crcByteReader) readFull(p []byte) error {
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	c.crc = crc32.Update(c.crc, castagnoli, p)
	c.n += int64(len(p))
	return nil
}

// readUvarint decodes one uvarint, distinguishing a clean boundary
// from a torn one: io.EOF with zero bytes consumed means "no more
// data here", while io.EOF after one or more varint bytes becomes
// io.ErrUnexpectedEOF — the file was cut mid-header. (The stdlib's
// binary.ReadUvarint makes the same distinction in current Go; this
// implementation keeps the guarantee local, explicit and tested
// rather than inherited.)
func readUvarint(br interface{ ReadByte() (byte, error) }) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrCorrupt)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrCorrupt)
}

// readRecord parses one record. A clean end of data (zero bytes
// available) returns io.EOF; any partial or invalid record returns a
// non-EOF error. consumed is the number of bytes read off r,
// including for failed parses.
func readRecord(r *bufio.Reader) (rec Record, consumed int64, err error) {
	cr := &crcByteReader{r: r}
	defer func() { consumed = cr.n }()
	id, err := readUvarint(cr)
	if err != nil {
		return Record{}, 0, err // io.EOF here means a clean boundary
	}
	n, err := readUvarint(cr)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, 0, fmt.Errorf("labelstore: torn length: %w", err)
	}
	if n > MaxPayload {
		return Record{}, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if err := cr.readFull(payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, 0, fmt.Errorf("labelstore: torn payload: %w", err)
	}
	want := cr.crc
	var footer [4]byte
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Record{}, 0, fmt.Errorf("labelstore: torn checksum: %w", err)
	}
	cr.n += 4
	if got := binary.LittleEndian.Uint32(footer[:]); got != want {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, got, want)
	}
	return Record{ID: id, Payload: payload}, 0, nil
}
