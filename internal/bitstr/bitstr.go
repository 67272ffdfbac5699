// Package bitstr implements bit-exact binary strings with the
// lexicographical order of Definition 3.1 of the CDBS paper (Li, Ling
// and Hu, "Efficient Processing of Updates in Dynamic XML Data", ICDE
// 2006).
//
// A BitString is a sequence of bits stored MSB-first. Unlike an
// integer, a BitString distinguishes "01" from "1": leading zeros are
// significant, and comparison is lexicographical — bit by bit from the
// left, with a proper prefix ordered before any of its extensions.
//
// BitStrings are immutable: every operation returns a new value and
// never aliases the receiver's storage in a way that permits mutation
// through the result. Storage is write-once — no method mutates data
// after construction — which is what lets Prefix and TrimTrailingZeros
// return views over shared storage without breaking immutability.
//
// # Kernels
//
// The hot operations are word-parallel: they work on the packed byte
// storage (bytes.Compare/bytes.Equal scans, shift-and-OR block copies,
// math/bits intrinsics) instead of one bit per loop iteration, relying
// on the invariant that all spare bits past Len-1 are zero. The
// original bit-at-a-time implementations are retained in
// reference_test.go as differential-fuzz ground truth and benchmark
// baselines.
// Compare, Equal, HasPrefix, Uint, TrimTrailingZeros and AppendText
// never allocate; Concat, Prefix (when it must copy), AppendBit and
// SpliceBits allocate exactly once.
package bitstr

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/bits"
)

// BitString is an immutable sequence of bits. The zero value is the
// empty bit string, ready to use.
type BitString struct {
	// data holds ceil(n/8) bytes, MSB-first. All bits past position
	// n-1 in the final byte are zero; this invariant lets Equal and
	// Compare work on whole bytes. data is never written after the
	// value is constructed, so distinct BitStrings may share it.
	data []byte
	n    int
}

// Empty is the empty bit string.
var Empty = BitString{}

// errBadRune reports a non-binary rune in Parse input.
var errBadRune = errors.New("bitstr: input must contain only '0' and '1'")

// Parse converts a textual binary string such as "0011" into a
// BitString. The empty string parses to Empty.
func Parse(s string) (BitString, error) {
	b := builderWithCap(len(s))
	for _, r := range s {
		switch r {
		case '0':
			b.appendBit(0)
		case '1':
			b.appendBit(1)
		default:
			return Empty, fmt.Errorf("%w: found %q", errBadRune, r)
		}
	}
	return b.bitString(), nil
}

// MustParse is like Parse but panics on invalid input. It is intended
// for constants in tests and examples.
func MustParse(s string) BitString {
	bs, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return bs
}

// FromBytes constructs a BitString from the first n bits of data
// (MSB-first). It copies data and zeroes any trailing spare bits.
func FromBytes(data []byte, n int) (BitString, error) {
	if n < 0 {
		return Empty, fmt.Errorf("bitstr: negative length %d", n)
	}
	if need := bytesFor(n); need > len(data) {
		return Empty, fmt.Errorf("bitstr: %d bits need %d bytes, have %d", n, need, len(data))
	}
	if n == 0 {
		return Empty, nil
	}
	out := make([]byte, bytesFor(n))
	copy(out, data[:bytesFor(n)])
	clearSpareBits(out, n)
	s := BitString{data: out, n: n}
	s.assertWellFormed()
	return s, nil
}

// View returns the first n bits of data as a BitString that aliases
// data instead of copying it. The caller vouches for what FromBytes
// establishes by copying: data holds exactly ceil(n/8) bytes with the
// spare bits zero, and is never written again — the contract a
// write-once arena of stored codes (keys.Arena) meets. The invariants
// build checks the shape; nothing can check the promise.
func View(data []byte, n int) BitString {
	// Capped for the same reason Prefix caps: no append through the
	// view may reach the bytes that follow it.
	s := BitString{data: data[:len(data):len(data)], n: n}
	s.assertWellFormed()
	return s
}

// Repeat returns a BitString of n copies of bit. A non-positive n
// yields Empty.
func Repeat(bit byte, n int) BitString {
	if n <= 0 {
		return Empty
	}
	out := make([]byte, bytesFor(n))
	if bit != 0 {
		for i := range out {
			out[i] = 0xFF
		}
		clearSpareBits(out, n)
	}
	s := BitString{data: out, n: n}
	s.assertWellFormed()
	return s
}

// bytesFor returns the number of bytes needed to hold n bits.
func bytesFor(n int) int { return (n + 7) / 8 }

// clearSpareBits zeroes the bits past position n-1 in the final byte.
func clearSpareBits(data []byte, n int) {
	if r := n % 8; r != 0 {
		data[len(data)-1] &= byte(0xFF) << (8 - r)
	}
}

// spareBits returns the bits past position n-1 in the final byte of
// data, which the storage invariant requires to be zero.
func spareBits(data []byte, n int) byte {
	r := n % 8
	if r == 0 || len(data) == 0 {
		return 0
	}
	return data[len(data)-1] &^ (byte(0xFF) << (8 - r))
}

// Len returns the number of bits.
func (s BitString) Len() int { return s.n }

// IsEmpty reports whether the string has no bits.
func (s BitString) IsEmpty() bool { return s.n == 0 }

// Bit returns bit i (0-based from the left) as 0 or 1. It panics if i
// is out of range, mirroring slice indexing.
func (s BitString) Bit(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: bit index %d out of range [0,%d)", i, s.n))
	}
	return (s.data[i/8] >> (7 - i%8)) & 1
}

// LastBit returns the final bit, or 0 for the empty string with ok
// false.
func (s BitString) LastBit() (bit byte, ok bool) {
	if s.n == 0 {
		return 0, false
	}
	return s.Bit(s.n - 1), true
}

// EndsWithOne reports whether the string is non-empty and its last bit
// is 1. CDBS codes must satisfy this (Lemma 4.2).
func (s BitString) EndsWithOne() bool {
	b, ok := s.LastBit()
	return ok && b == 1
}

// AppendBit returns s with one extra bit appended, in one allocation.
func (s BitString) AppendBit(bit byte) BitString {
	out := make([]byte, bytesFor(s.n+1))
	copy(out, s.data)
	if bit != 0 {
		out[s.n/8] |= 1 << (7 - s.n%8)
	}
	t := BitString{data: out, n: s.n + 1}
	t.assertWellFormed()
	return t
}

// Concat returns the concatenation s ⊕ t in one allocation: s's bytes
// are block-copied, then t's bytes are shifted in whole, each landing
// as one shift-and-OR into at most two destination bytes.
func (s BitString) Concat(t BitString) BitString {
	if t.n == 0 {
		return s
	}
	if s.n == 0 {
		return t
	}
	out := make([]byte, bytesFor(s.n+t.n))
	copy(out, s.data)
	orBitsAt(out, s.n, t.data, t.n)
	u := BitString{data: out, n: s.n + t.n}
	u.assertWellFormed()
	return u
}

// orBitsAt ORs the first n bits of src (MSB-first, spare bits zero)
// into dst starting at bit offset off. Bits of dst from off onward
// must be zero, and dst must hold at least bytesFor(off+n) bytes.
func orBitsAt(dst []byte, off int, src []byte, n int) {
	nb := bytesFor(n)
	di := off / 8
	r := uint(off % 8)
	if r == 0 {
		copy(dst[di:], src[:nb])
		return
	}
	for _, b := range src[:nb] {
		dst[di] |= b >> r
		di++
		if di < len(dst) {
			dst[di] = b << (8 - r)
		}
	}
}

// DropLastBit returns s without its final bit. It panics on the empty
// string.
func (s BitString) DropLastBit() BitString {
	if s.n == 0 {
		panic("bitstr: DropLastBit on empty string")
	}
	return s.Prefix(s.n - 1)
}

// Prefix returns the first n bits of s. It panics if n is out of
// range.
//
// When every bit past position n-1 in the kept bytes is already zero —
// always the case when n is a byte multiple, and for any prefix that
// only drops trailing zeros — the result shares s's storage instead of
// copying. Storage is write-once, so the shared bytes can never be
// mutated through either value and immutability holds.
func (s BitString) Prefix(n int) BitString {
	if n < 0 || n > s.n {
		panic(fmt.Sprintf("bitstr: prefix length %d out of range [0,%d]", n, s.n))
	}
	if n == 0 {
		return Empty
	}
	if n == s.n {
		return s
	}
	nb := bytesFor(n)
	if spareBits(s.data[:nb], n) == 0 {
		// The capped re-slice keeps any future append-style misuse
		// from reaching the shared tail.
		t := BitString{data: s.data[:nb:nb], n: n}
		t.assertWellFormed()
		return t
	}
	out := make([]byte, nb)
	copy(out, s.data[:nb])
	clearSpareBits(out, n)
	t := BitString{data: out, n: n}
	t.assertWellFormed()
	return t
}

// SpliceBits returns Prefix(keep) with the low k bits of v appended
// (MSB-first: bit k-1 of v is appended first), fused into a single
// allocation. It is the kernel behind ReplaceLastBit and the boxed CDBS
// insertion (Algorithm 1 case 2 builds r[:len-1] ⊕ "01" this way);
// AppendSplicedTo writes the same splice where it will be stored. It
// panics if keep is outside [0, Len] or k outside [0, 64].
func (s BitString) SpliceBits(keep int, v uint64, k int) BitString {
	n := s.spliceLen(keep, k)
	if n == 0 {
		return Empty
	}
	out := make([]byte, bytesFor(n))
	s.spliceInto(out, keep, v, k)
	t := BitString{data: out, n: n}
	t.assertWellFormed()
	return t
}

// spliceLen returns the length of a splice, or panics as SpliceBits
// documents. It is small enough to inline, and so is spliceInto.
func (s BitString) spliceLen(keep, k int) int {
	if keep < 0 || keep > s.n || k < 0 || k > 64 {
		panic("bitstr: splice keeps a prefix outside [0,Len] or adds bits outside [0,64]")
	}
	return keep + k
}

// spliceInto writes the first keep bits of s and then the low k bits
// of v into out, which holds bytesFor(keep+k) zero bytes.
func (s BitString) spliceInto(out []byte, keep int, v uint64, k int) {
	copy(out, s.data[:bytesFor(keep)])
	if r := keep % 8; r != 0 {
		out[keep/8] &= byte(0xFF) << (8 - r)
	}
	for p := keep; k > 0; p++ {
		k--
		out[p/8] |= byte(v>>uint(k)&1) << (7 - uint(p)%8)
	}
}

// PadRight returns s extended with zero bits to exactly width bits.
// F-CDBS codes are V-CDBS codes padded this way (Section 4 of the
// paper). When the padding fits inside s's final storage byte the
// result shares storage (those bits are the spare bits, already zero).
// It panics if width < s.Len().
func (s BitString) PadRight(width int) BitString {
	if width < s.n {
		panic(fmt.Sprintf("bitstr: cannot pad %d bits down to %d", s.n, width))
	}
	if width == s.n {
		return s
	}
	if bytesFor(width) == len(s.data) {
		t := BitString{data: s.data, n: width}
		t.assertWellFormed()
		return t
	}
	out := make([]byte, bytesFor(width))
	copy(out, s.data)
	t := BitString{data: out, n: width}
	t.assertWellFormed()
	return t
}

// TrimTrailingZeros returns s with all trailing zero bits removed.
// This recovers a V-CDBS code from its F-CDBS padding. The scan is
// byte-parallel (math/bits.TrailingZeros8 on the last non-zero byte)
// and the result shares s's storage, so the call never allocates.
func (s BitString) TrimTrailingZeros() BitString {
	i := len(s.data) - 1
	for i >= 0 && s.data[i] == 0 {
		i--
	}
	if i < 0 {
		return Empty
	}
	// Spare bits are zero, so the last set bit is at position ≤ s.n-1.
	return s.Prefix(8*i + 8 - bits.TrailingZeros8(uint8(s.data[i])))
}

// ReplaceLastBit returns s with the final bit set to bit, in one
// allocation. It panics on the empty string.
func (s BitString) ReplaceLastBit(bit byte) BitString {
	if s.n == 0 {
		panic("bitstr: ReplaceLastBit on empty string")
	}
	if bit != 0 {
		bit = 1
	}
	return s.SpliceBits(s.n-1, uint64(bit), 1)
}

// HasPrefix reports whether p is a prefix of s (including p == s). It
// compares whole bytes and never allocates.
func (s BitString) HasPrefix(p BitString) bool {
	if p.n > s.n {
		return false
	}
	full := p.n / 8
	if !bytes.Equal(s.data[:full], p.data[:full]) {
		return false
	}
	r := p.n % 8
	if r == 0 {
		return true
	}
	// p's spare bits are zero, so masking s's byte suffices.
	return s.data[full]&(byte(0xFF)<<(8-r)) == p.data[full]
}

// Compare orders two bit strings per Definition 3.1: bits are compared
// left to right; 0 sorts before 1; a proper prefix sorts before its
// extensions. It returns -1, 0 or +1. Spare bits are zero, so the whole
// storage goes through bytes.Compare (vectorised by the runtime) — a
// spare bit of the shorter string stands against a 0, which ties, or a
// 1, which puts the prefix first — and equal storage leaves the lengths
// to decide ("1" before "10"). It never allocates.
func (s BitString) Compare(t BitString) int {
	if c := bytes.Compare(s.data, t.data); c != 0 {
		return c
	}
	return cmp.Compare(s.n, t.n)
}

// Less reports s ≺ t lexicographically.
func (s BitString) Less(t BitString) bool { return s.Compare(t) < 0 }

// Equal reports bit-for-bit equality. The spare-bits-zero invariant
// makes whole-storage bytes.Equal sound once the lengths match.
func (s BitString) Equal(t BitString) bool {
	return s.n == t.n && bytes.Equal(s.data, t.data)
}

// AppendText renders the bits as '0'/'1' text appended to dst. It
// decodes eight bits per storage byte and allocates only if dst lacks
// capacity.
func (s BitString) AppendText(dst []byte) []byte {
	full := s.n / 8
	for _, b := range s.data[:full] {
		dst = append(dst,
			'0'+(b>>7), '0'+((b>>6)&1), '0'+((b>>5)&1), '0'+((b>>4)&1),
			'0'+((b>>3)&1), '0'+((b>>2)&1), '0'+((b>>1)&1), '0'+(b&1))
	}
	for i := full * 8; i < s.n; i++ {
		dst = append(dst, '0'+((s.data[i/8]>>(7-i%8))&1))
	}
	return dst
}

// String renders the bits as a text string of '0' and '1'.
func (s BitString) String() string {
	if s.n == 0 {
		return ""
	}
	return string(s.AppendText(make([]byte, 0, s.n)))
}

// Bytes returns a copy of the underlying storage (ceil(Len/8) bytes,
// MSB-first, spare bits zero).
func (s BitString) Bytes() []byte {
	out := make([]byte, len(s.data))
	copy(out, s.data)
	return out
}

// AppendBytes appends the underlying storage (what Bytes copies) to
// dst.
func (s BitString) AppendBytes(dst []byte) []byte { return append(dst, s.data...) }

// FromUint returns the standard (V-Binary) binary representation of v,
// with no leading zeros; FromUint(0) is "0". This is the encoding the
// paper's V-Binary column of Table 1 uses.
func FromUint(v uint64) BitString {
	if v == 0 {
		return BitString{data: []byte{0}, n: 1}
	}
	return fromUintWidth(v, bits.Len64(v))
}

// FromUintFixed returns v in exactly width bits (F-Binary: zero-padded
// on the left). It panics if width is negative or v does not fit.
func FromUintFixed(v uint64, width int) BitString {
	if width < 0 {
		panic(fmt.Sprintf("bitstr: negative width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bitstr: %d does not fit in %d bits", v, width))
	}
	if width == 0 {
		return Empty
	}
	return fromUintWidth(v, width)
}

// fromUintWidth packs v MSB-first into exactly width bits, eight bits
// per output byte. width must be positive and at least bits.Len64(v).
func fromUintWidth(v uint64, width int) BitString {
	out := make([]byte, bytesFor(width))
	for j := range out {
		// Output byte j covers value bits width-1-8j down to
		// width-8-8j (0 = LSB of v); shifts past 64 are leading zero
		// padding, negative shifts left-align the final partial byte.
		shift := width - 8*(j+1)
		switch {
		case shift >= 64:
		case shift >= 0:
			out[j] = byte(v >> uint(shift))
		default:
			out[j] = byte(v << uint(-shift))
		}
	}
	s := BitString{data: out, n: width}
	s.assertWellFormed()
	return s
}

// Uint interprets the bits as an unsigned big-endian integer, whole
// bytes at a time. It returns an error when the string is longer than
// 64 bits and never allocates.
func (s BitString) Uint() (uint64, error) {
	if s.n > 64 {
		return 0, fmt.Errorf("bitstr: %d bits exceed uint64", s.n)
	}
	var v uint64
	for _, b := range s.data {
		v = v<<8 | uint64(b)
	}
	return v >> uint(len(s.data)*8-s.n), nil
}

// builder accumulates bits without reallocating per bit. After
// bitString hands the storage off, the next mutation (or Reset)
// switches to fresh storage so the returned BitString stays immutable.
type builder struct {
	data   []byte
	n      int
	sealed bool
}

func builderWithCap(bits int) *builder {
	return &builder{data: make([]byte, 0, bytesFor(bits))}
}

// Reset clears the builder for reuse, keeping its capacity unless the
// previous contents were handed off via bitString.
func (b *builder) Reset() {
	if b.sealed {
		b.data = nil
		b.sealed = false
	} else {
		b.data = b.data[:0]
	}
	b.n = 0
}

// unseal gives the builder private storage again after a bitString
// hand-off, so appends cannot mutate the returned value.
func (b *builder) unseal() {
	if b.sealed {
		b.data = append(make([]byte, 0, cap(b.data)), b.data...)
		b.sealed = false
	}
}

func (b *builder) appendBit(bit byte) {
	b.unseal()
	if b.n%8 == 0 {
		b.data = append(b.data, 0)
	}
	if bit != 0 {
		b.data[b.n/8] |= 1 << (7 - b.n%8)
	}
	b.n++
}

// appendAll appends every bit of s with whole-byte shift-and-OR
// copies.
func (b *builder) appendAll(s BitString) {
	if s.n == 0 {
		return
	}
	b.unseal()
	for need := bytesFor(b.n + s.n); len(b.data) < need; {
		b.data = append(b.data, 0)
	}
	orBitsAt(b.data, b.n, s.data, s.n)
	b.n += s.n
}

func (b *builder) bitString() BitString {
	b.sealed = true
	s := BitString{data: b.data[:bytesFor(b.n):bytesFor(b.n)], n: b.n}
	s.assertWellFormed()
	return s
}
