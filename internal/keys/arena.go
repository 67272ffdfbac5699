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
// TwoBetween, Fill and the size accounting read words and views
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
	// run is Fill.
	run(a *Arena, l, r Ref, n, limit int, s Sink) error
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

// exact is view cut at the key's end; buf never meets the interface.
func (a *Arena) exact(buf *wordBuf, r Ref) []byte {
	if r&inline != 0 {
		b := a.unword(buf, r)
		return b[:len(b):len(b)]
	}
	b := a.at(r)
	n := a.k.size(b)
	return b[:n:n]
}

// Key returns key r as a Key of the codec's own type.
func (a *Arena) Key(r Ref) Key { return a.k.key(a.exact(new(wordBuf), r)) }

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

// ErrTooLong reports a TwoBetween or Fill refused before it
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

// A Sink takes the keys of a run in key order.
type Sink interface {
	// Bounded reports whether the run's limit bounds its next key. A
	// run asks it of its keys in key order, or of none, before any Put.
	Bounded() bool
	Put(Ref)
}

// Fill makes n keys strictly between keys l and r, spread evenly
// (Algorithm 2's subdivision for CDBS), and hands them to s in key
// order; limit bounds the ordered form of those s picks (ErrTooLong).
// Keys not held in words go into one claim made after every check, so
// s has a key only once the run can no longer fail.
func (a *Arena) Fill(l, r Ref, n, limit int, s Sink) error { return a.k.run(a, l, r, n, limit, s) }

// Initial is Fill for the keys of positions 1..n, without a limit:
// Algorithm 2, for CDBS the subdivision of the open gap, the empty word.
func (a *Arena) Initial(n int, s Sink) error {
	switch c := a.k.(type) {
	case cdbsCodec:
		return c.run(a, inline, inline, n, 0, s)
	case qedCodec:
		cs, err := qed.Encode(n)
		return putKeys(a, cs, err, a.codeSize, a.appendCode, s.Put)
	case intCodec:
		ms, err := c.encodeBits(n)
		return putKeys(a, ms, err, bitstr.BitString.EncodedLen, appendBits, s.Put)
	}
	vs, err := floatCodec{}.encodeFloats(n)
	return putKeys(a, vs, err, floatSize, appendFloat, s.Put)
}

// Word reports whether r holds its key.
func (r Ref) Word() bool { return r&inline != 0 }

// Same reports whether key x of a and key y of b, arenas of one codec,
// are one key: two words are compared as integers, any other pair by
// stored form, a word's written out on the stack.
func Same(a *Arena, x Ref, b *Arena, y Ref) bool {
	if x&y&inline != 0 {
		return x == y
	}
	var bx, by wordBuf
	return bytes.Equal(a.exact(&bx, x), b.exact(&by, y))
}

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
// a word, is refused before it is claimed. No bytes claim no chunk;
// on an empty arena the first chunk is exactly size.
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

// filled checks, under the invariants tag, that the keys written into
// a claim of size bytes fill it.
func filled(room []byte, size int) {
	if invariants.Enabled && len(room) != size {
		invariants.Violated("keys", "%d bytes written into a claim of %d", len(room), size)
	}
}

// putKeys writes a boxed kernel's keys, unless it failed, into one
// claim of size bytes each — enc appends a stored form or returns the
// word that holds the key — and hands their Refs to out in order.
func putKeys[K any](a *Arena, ks []K, err error, size func(K) int, enc func([]byte, K) ([]byte, Ref), out func(Ref)) error {
	if err != nil {
		return err
	}
	total := 0
	for _, k := range ks {
		total += size(k)
	}
	at, room, err := a.grow(total)
	if err != nil {
		return err
	}
	for _, k := range ks {
		r := at + Ref(len(room))
		var w Ref
		if room, w = enc(room, k); w != 0 {
			r = w
		}
		out(r)
	}
	filled(room, total)
	return nil
}

// putTwo is two for a boxed kernel: both keys are computed, and fits,
// if any, can refuse m1, before either is written.
func putTwo[K any](a *Arena, l, r K, between func(l, r K) (K, error), fits func(K) error, size func(K) int, enc func([]byte, K) ([]byte, Ref)) (r1, r2 Ref, err error) {
	m1, err := between(l, r)
	if err == nil && fits != nil {
		err = fits(m1)
	}
	var m2 K
	if err == nil {
		m2, err = between(m1, r)
	}
	err = putKeys(a, []K{m1, m2}, err, size, enc, func(m Ref) { r1, r2 = r2, m }) // m1, then m2
	return r1, r2, err
}

// ---------------------------------------------------------------------------
// Bit-string codecs: the stored form is bitstr.AppendTo's.

func bitsAt(b []byte) bitstr.BitString { return bitstr.ViewStored(b) }

func appendBits(dst []byte, m bitstr.BitString) ([]byte, Ref) { return m.AppendTo(dst), 0 }

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
	return putTwo(a, bitsAt(a.at(l)), bitsAt(a.at(r)), c.betweenBits, nil, bitstr.BitString.EncodedLen, appendBits)
}

func (c intCodec) run(a *Arena, l, r Ref, n, _ int, out Sink) error {
	ms, err := c.nbetweenBits(bitsAt(a.at(l)), bitsAt(a.at(r)), n)
	return putKeys(a, ms, err, bitstr.BitString.EncodedLen, appendBits, out.Put)
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

// between makes the code Algorithm 1 assigns in a checked gap of CDBS
// keys l and r, of ll and rl bits (cdbs.Splice), and its bits: a word,
// or a key appended to the claim *room, which starts at offset at.
func (a *Arena) between(l, r Ref, ll, rl int, room *[]byte, at Ref) (Ref, int) {
	right, keep, v, k := cdbs.Splice(ll, rl)
	src, n := l, keep+k
	if right {
		src = r
	}
	var m Ref
	if a.fits(n) {
		m = inline | a.word(src)&^(math.MaxUint32>>1>>keep) | Ref(v)<<(31-n)
	} else {
		var buf wordBuf
		m = at + Ref(len(*room))
		*room = bitsAt(a.view(&buf, src)).AppendSplicedTo(*room, keep, v, k)
	}
	if invariants.Enabled && !(a.endsOne(m) && (ll == 0 || a.Compare(l, m) < 0) && (rl == 0 || a.Compare(m, r) < 0)) {
		invariants.Violated("keys", "Between(%q, %q) = %q is not a code strictly between them", a.bitString(l), a.bitString(r), a.bitString(m))
	}
	return m, n
}

// The CDBS kernels: a code's length follows from its bounds' lengths,
// so each checks the gap once and the lengths against the limit, claims
// exactly the bytes its stored codes will take, and splices every code
// where it will live.

func (c cdbsCodec) two(a *Arena, l, r Ref, limit int) (Ref, Ref, error) {
	if err := a.checkGap(l, r); err != nil {
		return 0, 0, err
	}
	ll, rl := a.codeLen(l), a.codeLen(r)
	n := cdbs.BetweenLen(ll, rl)
	if err := tooLong((n+7)/8, limit); err != nil {
		return 0, 0, err
	}
	size := a.storedLen(n) + a.storedLen(n+1)
	at, room, err := a.grow(size)
	if err != nil {
		return 0, 0, err
	}
	m1, n1 := a.between(l, r, ll, rl, &room, at)
	m2, _ := a.between(m1, r, n1, rl, &room, at)
	filled(room, size)
	return m1, m2, nil
}

// run is Algorithm 2's subdivision of the gap in key order. No code is
// longer than max(ll, rl) plus the subdivision's depth, FixedWidth(n)
// (cdbs.EncodeBetween): when that fits a word and the limit, the codes
// are made without being measured first, as below 2^31 keys Algorithm 2
// on the open gap always is.
func (c cdbsCodec) run(a *Arena, l, r Ref, n, limit int, out Sink) error {
	if n <= 0 {
		// The boxed kernel's rule: no keys need no gap, fewer is an error.
		_, err := cdbs.NBetween(bitstr.Empty, bitstr.Empty, n)
		return err
	}
	if err := a.checkGap(l, r); err != nil {
		return err
	}
	ll, rl := a.codeLen(l), a.codeLen(r)
	size, longest := 0, max(ll, rl)+cdbs.FixedWidth(n)
	var at Ref
	var room []byte
	if !a.fits(longest) || tooLong((longest+7)/8, limit) != nil {
		var err error
		if size, err = a.measure(ll, rl, n, limit, out); err != nil {
			return err
		}
		if at, room, err = a.grow(size); err != nil {
			return err
		}
	}
	a.fill(l, r, ll, rl, n, &room, at, out)
	filled(room, size)
	return nil
}

// measure walks the n codes' bits in key order: it refuses one s picks
// over limit, and returns the bytes the codes not held in words take.
func (a *Arena) measure(ll, rl, n, limit int, s Sink) (size int, err error) {
	for n > 0 {
		mid, m := n/2, cdbs.BetweenLen(ll, rl)
		left, err := a.measure(ll, m, mid, limit, s)
		if err != nil {
			return 0, err
		}
		if limit > 0 && s.Bounded() {
			if err := tooLong((m+7)/8, limit); err != nil {
				return 0, err
			}
		}
		size += left + a.storedLen(m)
		ll, n = m, n-mid-1
	}
	return size, nil
}

// fill makes the n codes between l and r, of ll and rl bits, into the
// claim room at at, and hands them to out.
func (a *Arena) fill(l, r Ref, ll, rl, n int, room *[]byte, at Ref, out Sink) {
	for n > 0 {
		mid := n / 2
		m, ml := a.between(l, r, ll, rl, room, at)
		a.fill(l, m, ll, ml, mid, room, at, out)
		out.Put(m)
		l, ll, n = m, ml, n-mid-1
	}
}

// ---------------------------------------------------------------------------
// Float-point: 8 stored bytes, as the codec serialises them.

func floatAt(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

func floatSize(float64) int { return 8 }

func appendFloat(dst []byte, v float64) ([]byte, Ref) {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v)), 0
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
	return putTwo(a, floatAt(a.at(l)), floatAt(a.at(r)), f.betweenFloats, nil, floatSize, appendFloat)
}

func (f floatCodec) run(a *Arena, l, r Ref, n, _ int, out Sink) error {
	vs, err := f.nbetweenFloats(floatAt(a.at(l)), floatAt(a.at(r)), n)
	return putKeys(a, vs, err, floatSize, appendFloat, out.Put)
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

// codeSize returns the arena bytes a QED code takes, none in a word.
func (a *Arena) codeSize(c qed.Code) int {
	if a.fits(c.Len()) {
		return 0
	}
	return c.Len() + 1
}

func (a *Arena) appendCode(dst []byte, c qed.Code) ([]byte, Ref) {
	if !a.fits(c.Len()) {
		return append(c.AppendDigits(dst), 0), 0
	}
	w := inline
	for i := range c.Len() {
		w |= Ref(c.Digit(i)) << (29 - 2*i)
	}
	return dst, w
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
	return putTwo(a, a.code(l), a.code(r), qed.Between, fits, a.codeSize, a.appendCode)
}

func (qedCodec) run(a *Arena, l, r Ref, n, limit int, out Sink) error {
	cs, err := qed.NBetween(a.code(l), a.code(r), n)
	for _, c := range cs {
		if err == nil && limit > 0 && out.Bounded() {
			err = tooLong(c.Len(), limit)
		}
	}
	return putKeys(a, cs, err, a.codeSize, a.appendCode, out.Put)
}
