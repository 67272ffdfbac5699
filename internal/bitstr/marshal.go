package bitstr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// AppendTo serialises the bit string as a uvarint bit count followed
// by the packed payload bytes, appending to dst.
func (s BitString) AppendTo(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.n))
	return append(dst, s.data...)
}

// EncodedLen returns how many bytes AppendTo appends for s.
func (s BitString) EncodedLen() int { return StoredLen(s.n) }

// StoredLen returns how many bytes the stored form of an n-bit string
// takes: what AppendTo and AppendSplicedTo append.
func StoredLen(n int) int { return (bits.Len64(uint64(n)|1)+6)/7 + bytesFor(n) }

// AppendSplicedTo appends to dst what s.SpliceBits(keep, v, k).AppendTo
// would — the uvarint bit count, the kept prefix's bytes, the new bits —
// without building the spliced string in between: with room in dst it
// allocates nothing. It panics as SpliceBits does.
func (s BitString) AppendSplicedTo(dst []byte, keep int, v uint64, k int) []byte {
	n := s.spliceLen(keep, k)
	dst = binary.AppendUvarint(dst, uint64(n))
	at, end := len(dst), len(dst)+bytesFor(n)
	// Not append(dst, make(…)...): the race detector's build allocates it.
	dst = slices.Grow(dst, end-at)[:end]
	clear(dst[at:])
	s.spliceInto(dst[at:], keep, v, k)
	BitString{data: dst[at:], n: n}.assertWellFormed()
	return dst
}

// Stored is DecodeFrom without the copy and without the checks, for
// bytes the caller itself wrote with AppendTo into storage it never
// writes again: it returns the bit count and the packed bytes of the
// bit string at the front of data, the latter as a slice of data. With
// the spare bits zero, bytes.Compare on two packed forms, ties broken
// by bit count, is Compare. Stored is small enough to inline; it sits
// under every comparison of two stored labels.
func Stored(data []byte) (n int, packed []byte) {
	// binary.Uvarint, spelled out: a call would not leave room.
	n, used := int(data[0]&0x7F), 1
	for shift := 7; data[used-1] >= 0x80; shift += 7 {
		n |= int(data[used]&0x7F) << shift
		used++
	}
	return n, data[used : used+(n+7)>>3]
}

// ViewStored is Stored as a BitString that aliases data (View).
func ViewStored(data []byte) BitString {
	n, packed := Stored(data)
	return View(packed, n)
}

// DecodeFrom parses a bit string produced by AppendTo from the front
// of data, returning it and the number of bytes consumed.
func DecodeFrom(data []byte) (BitString, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return Empty, 0, fmt.Errorf("bitstr: bad length prefix")
	}
	if n > 1<<24 {
		return Empty, 0, fmt.Errorf("bitstr: implausible bit count %d", n)
	}
	need := bytesFor(int(n))
	if len(data) < used+need {
		return Empty, 0, fmt.Errorf("bitstr: truncated payload: need %d bytes, have %d", need, len(data)-used)
	}
	bs, err := FromBytes(data[used:used+need], int(n))
	if err != nil {
		return Empty, 0, err
	}
	return bs, used + need, nil
}
