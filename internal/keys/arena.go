package keys

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/cow"
	"repro/internal/invariants"
	"repro/internal/qed"
)

// Arena is a packed, append-only store of keys of one codec: every key
// is written once and is named from then on by a Ref. Under a codec
// with a word form (OrderedBytes) a key of at most 31 bits is held in
// its Ref; every other key is written in a self-delimiting stored form
// and its Ref is where that starts. The stored forms are
//
//	V/F-Binary, V/F-CDBS   uvarint bit count, then the bits MSB-first
//	                       in ceil(count/8) bytes (bitstr.AppendTo)
//	Float-point            the 8 bytes of the IEEE-754 value, big-endian
//	QED                    one byte per digit (1..3), then a 0 byte
//
// so a key costs 4 bytes, or its own size plus one or two, where a
// boxed Key costs an interface, a header and an allocation. Compare,
// TwoBetween, NBetween and the size accounting read words and views
// that alias the slice, and the CDBS kernels write their keys in place;
// a Key is built only by Key, for callers that want one.
//
// An Arena is a value: copying it shares the bytes. A key is never
// rewritten, so a copy keeps reading what it could see when it was
// taken. The bytes are a cow.Arena's, and a key lies whole in one of
// its chunks, so a holder that appends after another opens a chunk of
// its own and copies no key. Bytes are never reclaimed: a key nobody
// refers to any more stays until the arena is dropped.
type Arena struct {
	k   stored
	mem cow.Arena[byte]
}

// The arena's strides are 64 KB, and a later chunk has room for an
// eighth of what it holds, at least 256 bytes.
const (
	chunkShift = 16
	minChunk   = 256
)

// Ref names a key of an Arena and stays valid in every copy of the
// arena taken after the key was appended. A Ref with the inline bit
// set holds its key: the symbols left-aligned in the low 31 bits and
// zero-padded, so that two such Refs compare as their keys do, and the
// key's length is where its last nonzero symbol is. Any other Ref is
// the offset of the key's stored form.
type Ref uint32

// inline is the word form's tag; on its own it is the empty key, the
// kernels' open bound.
const inline Ref = 1 << 31

// ErrArenaFull reports an arena that has reached the 2 GiB a Ref can
// address.
var ErrArenaFull = errors.New("keys: arena full")

// stored is a codec's side of an Arena. A []byte argument is the stored
// form from the start of one key to at least its end; the appending
// methods grow the arena they are given and return the new keys' Refs
// in key order.
type stored interface {
	Codec
	// size returns the length of the stored key at the front of b.
	size(b []byte) int
	// compare orders two keys, not both words; it takes Refs so that
	// Arena.Compare stays small enough to inline.
	compare(s *Arena, x, y Ref) int
	// key returns the stored key as a Key of the codec's own type;
	// where the key type allows, it aliases b.
	key(b []byte) Key
	// bits is the key's term in the codec's size accounting (the
	// paper's Section 4.2) and total the accounting over the terms.
	bits(b []byte) int
	total(t tally) int
	// two appends m1 then m2 with l < m1 < m2 < r, or neither: the key
	// between l and r, then the key between m1 and r. A codec with an
	// ordered form refuses with tooLong, before it appends, an m1 over
	// limit.
	two(a *Arena, l, r Ref, limit int) (m1, m2 Ref, err error)
	// nbetween's n keys are spread evenly over the gap; limit is for
	// the keys at the ranks bounded lists.
	nbetween(a *Arena, l, r Ref, n, limit int, bounded []uint32) ([]Ref, error)
	encode(a *Arena, n int) ([]Ref, error)
	// marshal appends the key in the codec's own serialised form.
	marshal(dst, b []byte) []byte
}

// NewArena returns an empty arena for one of this package's codecs.
func NewArena(c Codec) (Arena, error) {
	k, ok := c.(stored)
	if !ok {
		return Arena{}, fmt.Errorf("keys: codec %s has no stored form", c.Name())
	}
	return Arena{k: k, mem: cow.NewArena[byte](chunkShift, minChunk)}, nil
}

// Codec returns the codec the arena's keys belong to.
func (a *Arena) Codec() Codec { return a.k }

// Size returns the bytes the arena's stored keys take, Cap those its
// chunks do.
func (a *Arena) Size() int { return a.mem.Used() }
func (a *Arena) Cap() int  { return a.mem.Room() }

func (a *Arena) at(r Ref) []byte {
	b := a.mem.From(int(r))
	if invariants.Enabled && len(b) < a.k.size(b) {
		invariants.Violated("keys", "the key at %d crosses its chunk's end at %d", r, int(r)+len(b))
	}
	return b
}

// sym is OrderedBytes.symbol of the arena's codec, the bits of a
// symbol of its word form, or 0 for a codec without one. A type switch
// compiles to two compares, where an assertion to OrderedBytes is a
// runtime call; a field would take a containment labeling, which every
// clone copies, to the next size class.
func (a *Arena) sym() int {
	switch k := a.k.(type) {
	case cdbsCodec:
		return k.symbol()
	case qedCodec:
		return k.symbol()
	}
	return 0
}

// fits reports whether a key of n symbols is held in its Ref.
func (a *Arena) fits(n int) bool {
	s := a.sym()
	return s > 0 && n*s <= 31
}

// wordLen returns the symbols of the key word r holds.
func (a *Arena) wordLen(r Ref) int {
	s := a.sym()
	return (32 - bits.TrailingZeros32(uint32(r)<<1) + s - 1) / s
}

// wordBuf has room for the stored form of a key held in its Ref: at
// most 15 QED digits and the separator.
type wordBuf [16]byte

// view returns the stored form of key r: from the arena, or written
// into buf for a key held in its Ref.
func (a *Arena) view(buf *wordBuf, r Ref) []byte {
	if r&inline == 0 {
		return a.at(r)
	}
	return a.unword(buf, r)
}

// unword writes the stored form of the key word r holds into buf.
func (a *Arena) unword(buf *wordBuf, r Ref) []byte {
	q, n := uint32(r)<<1, a.wordLen(r)
	if a.sym() == 1 { // CDBS: the bit count, then the bits
		buf[0] = byte(n)
		binary.BigEndian.PutUint32(buf[1:], q)
		return buf[:1+(n+7)/8]
	}
	for i := range n { // QED: the digits, then the separator
		buf[i] = byte(q>>(30-2*i)) & 3
	}
	buf[n] = 0
	return buf[:n+1]
}

// Stored returns the stored form of key r: a slice of the arena, or a
// copy for a key held in its Ref.
func (a *Arena) Stored(r Ref) []byte {
	if r&inline != 0 {
		b := a.unword(new(wordBuf), r)
		return b[:len(b):len(b)]
	}
	b := a.at(r)
	n := a.k.size(b)
	return b[:n:n]
}

// Key returns key r as a Key of the codec's own type.
func (a *Arena) Key(r Ref) Key { return a.k.key(a.Stored(r)) }

// Compare orders two keys: negative, zero or positive as x is below,
// equal to or above y. Two words compare as integers, by their
// difference (a sign would not leave room to inline); any other pair
// is compared in stored form.
func (a *Arena) Compare(x, y Ref) int {
	if x&y&inline != 0 {
		return int(x) - int(y)
	}
	return a.k.compare(a, x, y)
}

// TotalBits is the codec's size accounting over the keys refs names.
func (a *Arena) TotalBits(refs []Ref) int {
	var t tally
	buf := new(wordBuf)
	for _, r := range refs {
		t.add(a.k.bits(a.view(buf, r)))
	}
	return a.k.total(t)
}

// ErrTooLong reports a TwoBetween or NBetween refused before it
// appended anything: a key's ordered form would be over the limit.
var ErrTooLong = errors.New("keys: key longer than the limit")

// tooLong is ErrTooLong for an ordered form of n bytes over a limit;
// zero is no limit.
func tooLong(n, limit int) error {
	if limit <= 0 || n <= limit {
		return nil
	}
	return fmt.Errorf("%w: %d bytes, limit %d", ErrTooLong, n, limit)
}

// TwoBetween appends two keys strictly between keys l and r, the
// second between the first and r, or neither. limit bounds the first
// key's ordered form.
func (a *Arena) TwoBetween(l, r Ref, limit int) (m1, m2 Ref, err error) {
	return a.k.two(a, l, r, limit)
}

// NBetween appends n keys strictly between keys l and r, spread evenly
// (Algorithm 2's subdivision for CDBS), and returns them in order.
// limit bounds the ordered form of the keys whose ranks in the run
// bounded lists.
func (a *Arena) NBetween(l, r Ref, n, limit int, bounded []uint32) ([]Ref, error) {
	return a.k.nbetween(a, l, r, n, limit, bounded)
}

// Encode appends the initial keys for positions 1..n and returns them
// in order.
func (a *Arena) Encode(n int) ([]Ref, error) { return a.k.encode(a, n) }

// AppendKey appends key r in the codec's serialised form: the stored
// form, but QED's digits packed two bits each.
func (a *Arena) AppendKey(dst []byte, r Ref) []byte {
	if r&inline == 0 {
		return a.k.marshal(dst, a.at(r))
	}
	// A word is CDBS or QED's; calling them directly keeps buf, which
	// an interface call would take to the heap, on the stack.
	var buf wordBuf
	b := a.unword(&buf, r)
	if a.sym() == 2 {
		return qedCodec{}.marshal(dst, b)
	}
	return bitStored{}.marshal(dst, b)
}

// ordered returns the order-preserving form of key r (OrderedBytes),
// a slice of the arena or of buf; ok is false for a codec without one.
func (a *Arena) ordered(buf *wordBuf, r Ref) (b []byte, ok bool) {
	s := a.sym()
	if s == 0 {
		return nil, false
	}
	if b = a.view(buf, r); s == 2 {
		return digitsAt(b), true
	}
	_, b = bitstr.Stored(b)
	return b, true
}

// AppendOrdered appends the order-preserving form of key r; ok is
// false for a codec without one.
func (a *Arena) AppendOrdered(dst []byte, r Ref) ([]byte, bool) {
	var buf wordBuf
	b, ok := a.ordered(&buf, r)
	return append(dst, b...), ok
}

// OrderedLen returns the length of key r's order-preserving form, 0
// for a codec without one.
func (a *Arena) OrderedLen(r Ref) int {
	var buf wordBuf
	b, _ := a.ordered(&buf, r)
	return len(b)
}

// grow claims size more bytes in one chunk and returns where they
// start and that much room to append them in place; what a kernel
// appends there starts at its Ref. A new chunk starts at most a stride
// after the arena's end, so an offset past 2 GiB, which would read as
// a word, is refused before it is claimed. No bytes claim no chunk.
func (a *Arena) grow(size int) (Ref, []byte, error) {
	if size == 0 {
		return 0, nil, nil
	}
	if a.mem.End()+1<<chunkShift+size > math.MaxInt32 {
		return 0, nil, ErrArenaFull
	}
	at, b := a.mem.Grow(size)
	return Ref(at), b[:0], nil
}

// tiled checks, under the invariants tag, that the stored keys among
// refs fill the size bytes claimed at at for them, end to end and in
// order: every Ref that is not a word names the start of a key.
func (a *Arena) tiled(at Ref, size int, refs ...Ref) {
	if !invariants.Enabled {
		return
	}
	end := at + Ref(size)
	for _, r := range refs {
		if r&inline != 0 {
			continue
		}
		if r != at {
			invariants.Violated("keys", "a key starts at %d, the one before it ends at %d", r, at)
		}
		at += Ref(a.k.size(a.at(r)))
	}
	if at != end {
		invariants.Violated("keys", "the keys end at %d, their claim at %d", at, end)
	}
}

// putTwo is two for a boxed kernel: both keys are computed before
// either is stored with the codec's put; fits, if any, can refuse m1.
func putTwo[K any](l, r K, between func(l, r K) (K, error), fits func(K) error, put func(K) (Ref, error)) (r1, r2 Ref, err error) {
	m1, err := between(l, r)
	if err == nil && fits != nil {
		err = fits(m1)
	}
	if err != nil {
		return 0, 0, err
	}
	m2, err := between(m1, r)
	if err != nil {
		return 0, 0, err
	}
	if r1, err = put(m1); err == nil {
		r2, err = put(m2)
	}
	return r1, r2, err
}

// putBulk is putAll for a labelling's initial keys: an empty arena
// opens its first chunk with exactly the room the stored ones take.
func putBulk[K any](a *Arena, ks []K, err error, size func(K) int, put func(K) (Ref, error)) ([]Ref, error) {
	room := 0
	for _, k := range ks {
		room += size(k)
	}
	if a.Cap() == 0 && room > 0 {
		a.mem.Start(make([]byte, room), 0)
	}
	return putAll(ks, err, put)
}

// putAll stores a kernel's run of keys with the codec's put.
func putAll[K any](ks []K, err error, put func(K) (Ref, error)) ([]Ref, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Ref, len(ks))
	for i, k := range ks {
		if out[i], err = put(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Bit-string codecs: the stored form is bitstr.AppendTo's.

func bitsAt(b []byte) bitstr.BitString { return bitstr.ViewStored(b) }

// putBits stores a bit string in the arena, whatever its length.
func (a *Arena) putBits(m bitstr.BitString) (Ref, error) {
	r, dst, err := a.grow(m.EncodedLen())
	if err == nil {
		m.AppendTo(dst)
	}
	return r, err
}

// bitStored is the part of the stored form the integer and CDBS codecs
// share.
type bitStored struct{}

func (bitStored) size(b []byte) int              { return bitsAt(b).EncodedLen() }
func (bitStored) key(b []byte) Key               { return bitsAt(b) }
func (bitStored) bits(b []byte) int              { return bitsAt(b).Len() }
func (s bitStored) marshal(dst, b []byte) []byte { return append(dst, b[:s.size(b)]...) }

func (c intCodec) total(t tally) int { return bitStringTotal(c.fixed, t) }

// compare is numeric order on the stored forms (bitstr.Stored): a
// V-Binary code has no leading zeros, so shorter is smaller; equal
// lengths compare bitwise. An integer key is never a word.
func (c intCodec) compare(s *Arena, x, y Ref) int {
	an, ap := bitstr.Stored(s.at(x))
	bn, bp := bitstr.Stored(s.at(y))
	if an != bn {
		return cmp.Compare(an, bn)
	}
	return bytes.Compare(ap, bp)
}

func (c intCodec) two(a *Arena, l, r Ref, _ int) (Ref, Ref, error) {
	return putTwo(bitsAt(a.at(l)), bitsAt(a.at(r)), c.betweenBits, nil, a.putBits)
}

func (c intCodec) nbetween(a *Arena, l, r Ref, n, _ int, _ []uint32) ([]Ref, error) {
	ms, err := c.nbetweenBits(bitsAt(a.at(l)), bitsAt(a.at(r)), n)
	return putAll(ms, err, a.putBits)
}

func (c intCodec) encode(a *Arena, n int) ([]Ref, error) {
	ms, err := c.encodeBits(n)
	return putBulk(a, ms, err, bitstr.BitString.EncodedLen, a.putBits)
}

func (c cdbsCodec) total(t tally) int { return bitStringTotal(c.fixed, t) }

// compare is Definition 3.1's order on the stored forms
// (bitstr.Stored); a word is written out in stored form first.
func (c cdbsCodec) compare(s *Arena, x, y Ref) int {
	var bx, by wordBuf
	var xb, yb []byte
	if x&inline == 0 {
		xb = s.at(x)
	} else {
		xb = s.unword(&bx, x)
	}
	if y&inline == 0 {
		yb = s.at(y)
	} else {
		yb = s.unword(&by, y)
	}
	an, ap := bitstr.Stored(xb)
	bn, bp := bitstr.Stored(yb)
	if c := bytes.Compare(ap, bp); c != 0 {
		return c
	}
	return cmp.Compare(an, bn)
}

// codeLen returns the bits of CDBS key r.
func (a *Arena) codeLen(r Ref) int {
	if r&inline != 0 {
		return a.wordLen(r)
	}
	n, _ := bitstr.Stored(a.at(r))
	return n
}

// word returns CDBS key r, of at most 31 bits, as a word's payload;
// r may be a short key putBits stored whole.
func (a *Arena) word(r Ref) Ref {
	if r&inline != 0 {
		return r &^ inline
	}
	var w [4]byte
	_, p := bitstr.Stored(a.at(r))
	copy(w[:], p)
	return Ref(binary.BigEndian.Uint32(w[:]) >> 1)
}

// checkGap is cdbs.CheckGap on keys of the arena: a bound is empty
// (open) or ends with 1, as a word always does, and l < r.
func (a *Arena) checkGap(l, r Ref) error {
	ll, rl := a.codeLen(l), a.codeLen(r)
	if a.endsOne(l) && a.endsOne(r) && (ll == 0 || rl == 0 || a.Compare(l, r) < 0) {
		return nil
	}
	return cdbs.CheckGap(a.bitString(l), a.bitString(r))
}

// bitString returns key r of a bit-string codec.
func (a *Arena) bitString(r Ref) bitstr.BitString { return a.Key(r).(bitstr.BitString) }

func (a *Arena) endsOne(r Ref) bool {
	if r&inline != 0 {
		return true
	}
	b := bitsAt(a.at(r))
	return b.IsEmpty() || b.EndsWithOne()
}

// storedLen returns the arena bytes a CDBS code of n bits takes.
func (a *Arena) storedLen(n int) int {
	if a.fits(n) {
		return 0
	}
	return bitstr.StoredLen(n)
}

// between writes the code Algorithm 1 assigns between CDBS keys l and
// r of a checked gap (cdbs.Splice): in its Ref when it fits one,
// otherwise stored at the front of room, which starts at offset at.
func (a *Arena) between(l, r Ref, room []byte, at Ref) Ref {
	right, keep, v, k := cdbs.Splice(a.codeLen(l), a.codeLen(r))
	src, n, m := l, keep+k, at
	if right {
		src = r
	}
	if a.fits(n) {
		m = inline | a.word(src)&^(math.MaxUint32>>1>>keep) | Ref(v)<<(31-n)
	} else {
		var buf wordBuf
		_ = bitsAt(a.view(&buf, src)).AppendSplicedTo(room, keep, v, k)
	}
	if invariants.Enabled && !(a.endsOne(m) && (a.codeLen(l) == 0 || a.Compare(l, m) < 0) && (a.codeLen(r) == 0 || a.Compare(m, r) < 0)) {
		invariants.Violated("keys", "Between(%q, %q) = %q is not a code strictly between them", a.bitString(l), a.bitString(r), a.bitString(m))
	}
	return m
}

// The CDBS kernels: a code's length follows from its bounds' lengths,
// so each method checks the gap once and the lengths against the
// limit, claims exactly the bytes its stored codes will take, and
// splices every code where it will live.

func (c cdbsCodec) two(a *Arena, l, r Ref, limit int) (Ref, Ref, error) {
	if err := a.checkGap(l, r); err != nil {
		return 0, 0, err
	}
	n := cdbs.BetweenLen(a.codeLen(l), a.codeLen(r))
	if err := tooLong((n+7)/8, limit); err != nil {
		return 0, 0, err
	}
	first, size := a.storedLen(n), a.storedLen(n)+a.storedLen(n+1)
	at, room, err := a.grow(size)
	if err != nil {
		return 0, 0, err
	}
	m1 := a.between(l, r, room, at)
	m2 := a.between(m1, r, room[first:first], at+Ref(first))
	a.tiled(at, size, m1, m2)
	return m1, m2, nil
}

func (c cdbsCodec) nbetween(a *Arena, l, r Ref, n, limit int, bounded []uint32) ([]Ref, error) {
	if n <= 0 {
		// The boxed kernel's rule: no keys need no gap, fewer is an error.
		_, err := cdbs.NBetween(bitstr.Empty, bitstr.Empty, n)
		return nil, err
	}
	if err := a.checkGap(l, r); err != nil {
		return nil, err
	}
	refs := make([]Ref, n)
	cdbs.EncodeBetweenLens(refs, a.codeLen(l), a.codeLen(r))
	for _, i := range bounded {
		if err := tooLong((int(refs[i])+7)/8, limit); err != nil {
			return nil, err
		}
	}
	// The lengths become offsets into the run for the codes that do not
	// fit a word, which are stored back to back in key order, the order
	// a scan reads them in, and once the run is written into the arena.
	size := 0
	for i, bits := range refs {
		refs[i] = Ref(size)
		size += a.storedLen(int(bits))
	}
	at, room, err := a.grow(size)
	if err != nil {
		return nil, err
	}
	a.fill(refs, room, at, l, r)
	a.tiled(at, size, refs...)
	return refs, nil
}

// fill is cdbs.EncodeBetween's recursion over the arena: each of refs
// holds its code's offset into room until the code is written, and
// then its Ref. A gap's code is written before its halves', which read
// it back as their bound.
func (a *Arena) fill(refs []Ref, room []byte, at Ref, l, r Ref) {
	if len(refs) == 0 {
		return
	}
	mid := len(refs) / 2
	off := refs[mid]
	refs[mid] = a.between(l, r, room[off:off], at+off)
	a.fill(refs[:mid], room, at, l, refs[mid])
	a.fill(refs[mid+1:], room, at, refs[mid], r)
}

// encode is Algorithm 2: the even subdivision of the gap open at both
// ends, the empty word.
func (c cdbsCodec) encode(a *Arena, n int) ([]Ref, error) {
	return c.nbetween(a, inline, inline, n, 0, nil)
}

// ---------------------------------------------------------------------------
// Float-point: 8 stored bytes, as the codec serialises them.

func floatAt(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

func (a *Arena) putFloat(v float64) (Ref, error) {
	r, dst, err := a.grow(8)
	if err == nil {
		binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return r, err
}

func (floatCodec) size([]byte) int              { return 8 }
func (floatCodec) key(b []byte) Key             { return floatAt(b) }
func (floatCodec) bits([]byte) int              { return 64 }
func (floatCodec) total(t tally) int            { return t.sum }
func (floatCodec) marshal(dst, b []byte) []byte { return append(dst, b[:8]...) }

func (floatCodec) compare(s *Arena, x, y Ref) int {
	return compareFloats(floatAt(s.at(x)), floatAt(s.at(y)))
}

func (f floatCodec) two(a *Arena, l, r Ref, _ int) (Ref, Ref, error) {
	return putTwo(floatAt(a.at(l)), floatAt(a.at(r)), f.betweenFloats, nil, a.putFloat)
}

func (f floatCodec) nbetween(a *Arena, l, r Ref, n, _ int, _ []uint32) ([]Ref, error) {
	vs, err := f.nbetweenFloats(floatAt(a.at(l)), floatAt(a.at(r)), n)
	return putAll(vs, err, a.putFloat)
}

func (f floatCodec) encode(a *Arena, n int) ([]Ref, error) {
	vs, err := f.encodeFloats(n)
	return putBulk(a, vs, err, func(float64) int { return 8 }, a.putFloat)
}

// ---------------------------------------------------------------------------
// QED: the digits, then the 0 the paper separates stored codes with.

func digitsAt(b []byte) []byte { return b[:bytes.IndexByte(b, 0)] }

func codeAt(b []byte) qed.Code { return qed.FromDigits(digitsAt(b)) }

// code returns QED key r.
func (a *Arena) code(r Ref) qed.Code {
	var buf wordBuf
	return codeAt(a.view(&buf, r))
}

// putCode holds a code of up to 15 digits in its Ref and stores a
// longer one.
func (a *Arena) putCode(c qed.Code) (Ref, error) {
	if a.fits(c.Len()) {
		w := inline
		for i := range c.Len() {
			w |= Ref(c.Digit(i)) << (29 - 2*i)
		}
		return w, nil
	}
	r, dst, err := a.grow(c.Len() + 1)
	if err == nil {
		_ = append(c.AppendDigits(dst), 0)
	}
	return r, err
}

func (qedCodec) size(b []byte) int { return len(digitsAt(b)) + 1 }
func (qedCodec) key(b []byte) Key  { return codeAt(b) }
func (qedCodec) bits(b []byte) int { return codeAt(b).BitsWithSeparator() }
func (qedCodec) total(t tally) int { return t.sum }

// compare is qed.Code.Compare on the stored forms. The separator sorts
// below every digit, so two codes are decided no later than at the
// shorter one's separator, and comparing a's whole stored form with as
// many bytes from b never looks at what follows b's.
func (qedCodec) compare(s *Arena, x, y Ref) int {
	var bx, by wordBuf
	var a, b []byte
	if x&inline == 0 {
		a = s.at(x)
	} else {
		a = s.unword(&bx, x)
	}
	if y&inline == 0 {
		b = s.at(y)
	} else {
		b = s.unword(&by, y)
	}
	n := min(bytes.IndexByte(a, 0)+1, len(b))
	return bytes.Compare(a[:n], b[:n])
}

func (qedCodec) marshal(dst, b []byte) []byte {
	return append(dst, qed.Marshal([]qed.Code{codeAt(b)})...)
}

// The QED kernels are boxed: their codes are checked against the limit,
// then held in a word or copied in.

func (qedCodec) two(a *Arena, l, r Ref, limit int) (Ref, Ref, error) {
	fits := func(m qed.Code) error { return tooLong(m.Len(), limit) }
	return putTwo(a.code(l), a.code(r), qed.Between, fits, a.putCode)
}

func (qedCodec) nbetween(a *Arena, l, r Ref, n, limit int, bounded []uint32) ([]Ref, error) {
	cs, err := qed.NBetween(a.code(l), a.code(r), n)
	for _, i := range bounded {
		if err == nil {
			err = tooLong(cs[i].Len(), limit)
		}
	}
	return putAll(cs, err, a.putCode)
}

func (qedCodec) encode(a *Arena, n int) ([]Ref, error) {
	cs, err := qed.Encode(n)
	size := func(c qed.Code) int {
		if a.fits(c.Len()) {
			return 0
		}
		return c.Len() + 1
	}
	return putBulk(a, cs, err, size, a.putCode)
}
