package keys

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/cow"
	"repro/internal/invariants"
	"repro/internal/qed"
)

// Arena is a packed, append-only store of keys of one codec: every key
// is written once, in a self-delimiting stored form, and is named from
// then on by where it starts (a Ref). The stored forms are
//
//	V/F-Binary, V/F-CDBS   uvarint bit count, then the bits MSB-first
//	                       in ceil(count/8) bytes (bitstr.AppendTo)
//	Float-point            the 8 bytes of the IEEE-754 value, big-endian
//	QED                    one byte per digit (1..3), then a 0 byte
//
// so a key costs its own size plus one or two bytes, where a boxed Key
// costs an interface, a header and an allocation. Compare, TwoBetween,
// NBetween and the size accounting read views that alias the slice, and
// the CDBS kernels write their keys into it; a Key is built only by Key,
// for callers that want one.
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

// Ref names a key of an Arena: the offset of its stored form. A Ref
// stays valid in every copy of the arena taken after the key was
// appended.
type Ref uint32

// ErrArenaFull reports an arena that has reached the 4 GiB a Ref can
// address.
var ErrArenaFull = errors.New("keys: arena full")

// stored is a codec's side of an Arena. A []byte argument is the arena
// from the start of one stored key to its end; the appending methods
// grow the arena they are given and return the new keys' Refs in key
// order.
type stored interface {
	Codec
	// size returns the length of the stored key at the front of b.
	size(b []byte) int
	// compare takes Refs so that Arena.Compare stays small enough to inline.
	compare(s *Arena, x, y Ref) int
	// key returns the stored key as the Key the codec's Key-level
	// methods produce; where the key type allows, it aliases b.
	key(b []byte) Key
	// bits is the key's term in the codec's size accounting and total
	// the accounting over the terms (Codec.TotalBits).
	bits(b []byte) int
	total(t tally) int
	// two appends m1 then m2 with l < m1 < m2 < r, or neither: what
	// Codec.Between gives for l and r, then for m1 and r. A codec with
	// an ordered form refuses with tooLong, before it appends, an m1
	// over limit.
	two(a *Arena, l, r []byte, limit int) (m1, m2 Ref, err error)
	// nbetween's limit is for the keys at the ranks bounded lists.
	nbetween(a *Arena, l, r []byte, n, limit int, bounded []uint32) ([]Ref, error)
	encode(a *Arena, n int) ([]Ref, error)
	// marshal appends the key as Marshaler.AppendKey writes it.
	marshal(dst, b []byte) []byte
}

// orderedStored is the stored side of OrderedBytes: ordered returns
// the part of the stored key at the front of b that is its
// order-preserving form.
type orderedStored interface {
	ordered(b []byte) []byte
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

// Size returns the bytes the arena's keys take, Cap those its chunks do.
func (a *Arena) Size() int { return a.mem.Used() }
func (a *Arena) Cap() int  { return a.mem.Room() }

func (a *Arena) at(r Ref) []byte {
	b := a.mem.From(int(r))
	if invariants.Enabled && len(b) < a.k.size(b) {
		invariants.Violated("keys", "the key at %d crosses its chunk's end at %d", r, int(r)+len(b))
	}
	return b
}

// Stored returns the stored form of key r, aliasing the arena.
func (a *Arena) Stored(r Ref) []byte {
	b := a.at(r)
	n := a.k.size(b)
	return b[:n:n]
}

// Key returns key r as a Key of the codec's own type.
func (a *Arena) Key(r Ref) Key { return a.k.key(a.at(r)) }

// Compare orders two keys as Codec.Compare does.
func (a *Arena) Compare(x, y Ref) int { return a.k.compare(a, x, y) }

// TotalBits is Codec.TotalBits over the keys refs names.
func (a *Arena) TotalBits(refs []Ref) int {
	var t tally
	for _, r := range refs {
		t.add(a.k.bits(a.at(r)))
	}
	return a.k.total(t)
}

// ErrTooLong reports a TwoBetween or NBetween refused before it
// appended anything: a key's Ordered form would be over the limit.
var ErrTooLong = errors.New("keys: key longer than the limit")

// tooLong is ErrTooLong for an Ordered form of n bytes over a limit;
// zero is no limit.
func tooLong(n, limit int) error {
	if limit <= 0 || n <= limit {
		return nil
	}
	return fmt.Errorf("%w: %d bytes, limit %d", ErrTooLong, n, limit)
}

// TwoBetween appends two keys strictly between keys l and r, as two
// calls of Codec.Between compute them (the second between the first and
// r), or neither. limit bounds the first key's Ordered form.
func (a *Arena) TwoBetween(l, r Ref, limit int) (m1, m2 Ref, err error) {
	return a.k.two(a, a.at(l), a.at(r), limit)
}

// NBetween appends n keys strictly between keys l and r, as
// Codec.NBetween computes them, and returns them in order. limit bounds
// the Ordered form of the keys whose ranks in the run bounded lists.
func (a *Arena) NBetween(l, r Ref, n, limit int, bounded []uint32) ([]Ref, error) {
	return a.k.nbetween(a, a.at(l), a.at(r), n, limit, bounded)
}

// Encode appends the initial keys for positions 1..n, as Codec.Encode
// computes them, and returns them in order.
func (a *Arena) Encode(n int) ([]Ref, error) { return a.k.encode(a, n) }

// AppendKey appends key r as the codec's Marshaler writes it.
func (a *Arena) AppendKey(dst []byte, r Ref) []byte { return a.k.marshal(dst, a.at(r)) }

// Ordered returns what the codec's OrderedBytes appends for key r, as
// a slice of the arena; ok is false for a codec that is none.
func (a *Arena) Ordered(r Ref) (b []byte, ok bool) {
	o, ok := a.k.(orderedStored)
	if !ok {
		return nil, false
	}
	b = o.ordered(a.at(r))
	return b[:len(b):len(b)], true
}

// grow claims size more bytes in one chunk and returns where they
// start and that much room to append them in place; what a kernel
// appends there starts at its Ref. A new chunk starts at most a stride
// after the arena's end, so a Ref past 4 GiB is refused before it is
// claimed.
func (a *Arena) grow(size int) (Ref, []byte, error) {
	if a.mem.End()+1<<chunkShift+size > math.MaxUint32 {
		return 0, nil, ErrArenaFull
	}
	at, b := a.mem.Grow(size)
	return Ref(at), b[:0], nil
}

// tiled checks, under the invariants tag, that the keys a stored kernel
// just wrote at refs fill the size bytes claimed for them from their
// bounds' lengths, end to end: every Ref names the start of a key.
func (a *Arena) tiled(size int, refs ...Ref) {
	for i, at := 0, refs[0]; invariants.Enabled && i < len(refs); i++ {
		next := refs[0] + Ref(size)
		if i+1 < len(refs) {
			next = refs[i+1]
		}
		if at += Ref(a.k.size(a.at(at))); at != next {
			invariants.Violated("keys", "a key ends at %d, the next (or their claim) at %d", at, next)
		}
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
// opens its first chunk with exactly the room they take.
func putBulk[K any](a *Arena, ks []K, err error, size func(K) int, put func(K) (Ref, error)) ([]Ref, error) {
	room := 0
	for _, k := range ks {
		room += size(k)
	}
	if a.Cap() == 0 {
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

// compare is compareNumeric on the stored forms (bitstr.Stored).
func (c intCodec) compare(s *Arena, x, y Ref) int {
	an, ap := bitstr.Stored(s.at(x))
	bn, bp := bitstr.Stored(s.at(y))
	if an != bn {
		return cmp.Compare(an, bn)
	}
	return bytes.Compare(ap, bp)
}

func (c intCodec) two(a *Arena, l, r []byte, _ int) (Ref, Ref, error) {
	return putTwo(bitsAt(l), bitsAt(r), c.betweenBits, nil, a.putBits)
}

func (c intCodec) nbetween(a *Arena, l, r []byte, n, _ int, _ []uint32) ([]Ref, error) {
	ms, err := c.nbetweenBits(bitsAt(l), bitsAt(r), n)
	return putAll(ms, err, a.putBits)
}

func (c intCodec) encode(a *Arena, n int) ([]Ref, error) {
	ms, err := c.encodeBits(n)
	return putBulk(a, ms, err, bitstr.BitString.EncodedLen, a.putBits)
}

func (c cdbsCodec) total(t tally) int { return bitStringTotal(c.fixed, t) }

// compare is BitString.Compare on the stored forms (bitstr.Stored).
func (c cdbsCodec) compare(s *Arena, x, y Ref) int {
	an, ap := bitstr.Stored(s.at(x))
	bn, bp := bitstr.Stored(s.at(y))
	if c := bytes.Compare(ap, bp); c != 0 {
		return c
	}
	return cmp.Compare(an, bn)
}

// The CDBS kernels (package cdbs, Append*) write stored codes, and a
// code's length follows from its bounds' lengths: each method checks
// the gap once and the lengths against the limit, claims exactly the
// bytes its codes will take, and has them written there.

func (c cdbsCodec) two(a *Arena, l, r []byte, limit int) (Ref, Ref, error) {
	lb, rb := bitsAt(l), bitsAt(r)
	if err := cdbs.CheckGap(lb, rb); err != nil {
		return 0, 0, err
	}
	n := cdbs.BetweenLen(lb.Len(), rb.Len())
	if err := tooLong((n+7)/8, limit); err != nil {
		return 0, 0, err
	}
	first, both := bitstr.StoredLen(n), bitstr.StoredLen(n)+bitstr.StoredLen(n+1)
	at, dst, err := a.grow(both)
	if err == nil {
		cdbs.AppendTwoBetween(dst, lb, rb)
		a.tiled(both, at, at+Ref(first))
	}
	return at, at + Ref(first), err
}

func (c cdbsCodec) nbetween(a *Arena, l, r []byte, n, limit int, bounded []uint32) ([]Ref, error) {
	lb, rb := bitsAt(l), bitsAt(r)
	if n <= 0 {
		// The boxed kernel's rule: no keys need no gap, fewer is an error.
		_, err := cdbs.NBetween(lb, rb, n)
		return nil, err
	}
	if err := cdbs.CheckGap(lb, rb); err != nil {
		return nil, err
	}
	refs := make([]Ref, n)
	cdbs.EncodeBetweenLens(refs, lb.Len(), rb.Len())
	for _, i := range bounded {
		if err := tooLong((int(refs[i])+7)/8, limit); err != nil {
			return nil, err
		}
	}
	// The lengths become offsets into the run, which is stored back to
	// back in key order, the order a scan reads it in, and once the run
	// is written into the arena.
	size := 0
	for i, bits := range refs {
		refs[i] = Ref(size)
		size += bitstr.StoredLen(int(bits))
	}
	at, buf, err := a.grow(size)
	if err != nil {
		return nil, err
	}
	cdbs.PutEncodeBetween(buf, refs, lb, rb)
	for i := range refs {
		refs[i] += at
	}
	a.tiled(size, refs...)
	return refs, nil
}

// encode is Algorithm 2: the even subdivision of the gap open at both
// ends, and the empty bit string is stored as its bit count alone.
func (c cdbsCodec) encode(a *Arena, n int) ([]Ref, error) {
	open := []byte{0}
	return c.nbetween(a, open, open, n, 0, nil)
}

func (c cdbsCodec) ordered(b []byte) []byte {
	_, packed := bitstr.Stored(b)
	return packed
}

// ---------------------------------------------------------------------------
// Float-point: 8 stored bytes, as floatCodec.AppendKey writes them.

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

func (f floatCodec) two(a *Arena, l, r []byte, _ int) (Ref, Ref, error) {
	return putTwo(floatAt(l), floatAt(r), f.betweenFloats, nil, a.putFloat)
}

func (f floatCodec) nbetween(a *Arena, l, r []byte, n, _ int, _ []uint32) ([]Ref, error) {
	vs, err := f.nbetweenFloats(floatAt(l), floatAt(r), n)
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

func (a *Arena) putCode(c qed.Code) (Ref, error) {
	r, dst, err := a.grow(c.Len() + 1)
	if err == nil {
		_ = append(c.AppendDigits(dst), 0)
	}
	return r, err
}

func (qedCodec) size(b []byte) int       { return len(digitsAt(b)) + 1 }
func (qedCodec) key(b []byte) Key        { return codeAt(b) }
func (qedCodec) bits(b []byte) int       { return codeAt(b).BitsWithSeparator() }
func (qedCodec) total(t tally) int       { return t.sum }
func (qedCodec) ordered(b []byte) []byte { return digitsAt(b) }

// compare is qed.Code.Compare on the stored forms. The separator sorts
// below every digit, so two codes are decided no later than at the
// shorter one's separator, and comparing a's whole stored form with as
// many bytes from b never looks at what follows b's.
func (qedCodec) compare(s *Arena, x, y Ref) int {
	a, b := s.at(x), s.at(y)
	n := min(bytes.IndexByte(a, 0)+1, len(b))
	return bytes.Compare(a[:n], b[:n])
}

func (qedCodec) marshal(dst, b []byte) []byte {
	return append(dst, qed.Marshal([]qed.Code{codeAt(b)})...)
}

// The QED kernels are boxed: their codes are checked against the limit,
// then copied in.

func (qedCodec) two(a *Arena, l, r []byte, limit int) (Ref, Ref, error) {
	fits := func(m qed.Code) error { return tooLong(m.Len(), limit) }
	return putTwo(codeAt(l), codeAt(r), qed.Between, fits, a.putCode)
}

func (qedCodec) nbetween(a *Arena, l, r []byte, n, limit int, bounded []uint32) ([]Ref, error) {
	cs, err := qed.NBetween(codeAt(l), codeAt(r), n)
	for _, i := range bounded {
		if err == nil {
			err = tooLong(cs[i].Len(), limit)
		}
	}
	return putAll(cs, err, a.putCode)
}

func (qedCodec) encode(a *Arena, n int) ([]Ref, error) {
	cs, err := qed.Encode(n)
	return putBulk(a, cs, err, func(c qed.Code) int { return c.Len() + 1 }, a.putCode)
}
