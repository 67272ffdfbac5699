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
	"repro/internal/qed"
)

// Arena is a packed, append-only store of keys of one codec: every key
// is written once, in a self-delimiting stored form, into one byte
// slice, and is named from then on by where it starts (a Ref). The
// stored forms are
//
//	V/F-Binary, V/F-CDBS   uvarint bit count, then the bits MSB-first
//	                       in ceil(count/8) bytes (bitstr.AppendTo)
//	Float-point            the 8 bytes of the IEEE-754 value, big-endian
//	QED                    one byte per digit (1..3), then a 0 byte
//
// so a key costs its own size plus one or two bytes, where a boxed Key
// costs an interface, a header and an allocation. Compare, Between,
// NBetween and the size accounting run on views that alias the slice;
// a Key is built only by Key, for callers that want one.
//
// An Arena is a value: copying it shares the bytes. A key is never
// rewritten, so a copy keeps reading what it could see when it was
// taken, and whoever appends first claims the free tail through the
// slice's cow.Mark — any other holder moves to a private slice the
// first time it appends (package cow's rule for write-once columns).
// Bytes are never reclaimed: a key nobody refers to any more stays
// until the arena is dropped.
type Arena struct {
	k    stored
	data []byte
	mark *cow.Mark
}

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
	compare(a, b []byte) int
	// key returns the stored key as the Key the codec's Key-level
	// methods produce; where the key type allows, it aliases b.
	key(b []byte) Key
	// bits is the key's term in the codec's size accounting and total
	// the accounting over the terms (Codec.TotalBits).
	bits(b []byte) int
	total(t tally) int
	between(a *Arena, l, r []byte) (Ref, error)
	nbetween(a *Arena, l, r []byte, n int) ([]Ref, error)
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
	return Arena{k: k, mark: cow.NewMark(0)}, nil
}

// Codec returns the codec the arena's keys belong to.
func (a *Arena) Codec() Codec { return a.k }

// Size returns the arena's length in bytes.
func (a *Arena) Size() int { return len(a.data) }

// Truncate drops every key appended since Size returned n, for a
// caller that will not use them after all. No copy of the arena may
// have been taken in between (cow.Shrink).
func (a *Arena) Truncate(n int) { a.data = cow.Shrink(a.mark, a.data, len(a.data)-n) }

func (a *Arena) at(r Ref) []byte { return a.data[r:] }

// Stored returns the stored form of key r, aliasing the arena.
func (a *Arena) Stored(r Ref) []byte {
	b := a.at(r)
	n := a.k.size(b)
	return b[:n:n]
}

// Key returns key r as a Key of the codec's own type.
func (a *Arena) Key(r Ref) Key { return a.k.key(a.at(r)) }

// Compare orders two keys as Codec.Compare does.
func (a *Arena) Compare(x, y Ref) int { return a.k.compare(a.at(x), a.at(y)) }

// TotalBits is Codec.TotalBits over the keys refs names.
func (a *Arena) TotalBits(refs []Ref) int {
	var t tally
	for _, r := range refs {
		t.add(a.k.bits(a.at(r)))
	}
	return a.k.total(t)
}

// Between appends a key strictly between keys l and r, as
// Codec.Between computes it.
func (a *Arena) Between(l, r Ref) (Ref, error) { return a.k.between(a, a.at(l), a.at(r)) }

// NBetween appends n keys strictly between keys l and r, as
// Codec.NBetween computes them, and returns them in order.
func (a *Arena) NBetween(l, r Ref, n int) ([]Ref, error) {
	return a.k.nbetween(a, a.at(l), a.at(r), n)
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

// grow claims size more bytes and returns where they start and the
// empty slice to append them to.
func (a *Arena) grow(size int) (Ref, []byte, error) {
	at := len(a.data)
	if at+size > math.MaxUint32 {
		return 0, nil, ErrArenaFull
	}
	if at+size > cap(a.data) {
		// Out of room, so this append moves the arena whoever holds it.
		// Move it to half as much room again: append's own growth, a
		// quarter at a time, copies a long-lived arena five times over,
		// and the labels that pile up in one gap are long.
		grown := make([]byte, at, (at+size)*3/2)
		copy(grown, a.data)
		a.data, a.mark = grown, cow.NewMark(at)
	}
	a.data = cow.Grow(&a.mark, a.data, size)
	return Ref(at), a.data[at:at:len(a.data)], nil
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

func bitsAt(b []byte) bitstr.BitString {
	n, packed := bitstr.Stored(b)
	return bitstr.View(packed, n)
}

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
func (c intCodec) compare(a, b []byte) int {
	an, ap := bitstr.Stored(a)
	bn, bp := bitstr.Stored(b)
	if an != bn {
		return cmp.Compare(an, bn)
	}
	return bytes.Compare(ap, bp)
}

func (c intCodec) between(a *Arena, l, r []byte) (Ref, error) {
	m, err := c.betweenBits(bitsAt(l), bitsAt(r))
	if err != nil {
		return 0, err
	}
	return a.putBits(m)
}

func (c intCodec) nbetween(a *Arena, l, r []byte, n int) ([]Ref, error) {
	ms, err := c.nbetweenBits(bitsAt(l), bitsAt(r), n)
	return putAll(ms, err, a.putBits)
}

func (c intCodec) encode(a *Arena, n int) ([]Ref, error) {
	ms, err := c.encodeBits(n)
	return putAll(ms, err, a.putBits)
}

func (c cdbsCodec) total(t tally) int { return bitStringTotal(c.fixed, t) }

// compare is BitString.Compare on the stored forms (bitstr.Stored).
func (c cdbsCodec) compare(a, b []byte) int {
	an, ap := bitstr.Stored(a)
	bn, bp := bitstr.Stored(b)
	if c := bytes.Compare(ap, bp); c != 0 {
		return c
	}
	return cmp.Compare(an, bn)
}

func (c cdbsCodec) between(a *Arena, l, r []byte) (Ref, error) {
	m, err := cdbs.Between(bitsAt(l), bitsAt(r))
	if err != nil {
		return 0, err
	}
	return a.putBits(m)
}

func (c cdbsCodec) nbetween(a *Arena, l, r []byte, n int) ([]Ref, error) {
	ms, err := cdbs.NBetween(bitsAt(l), bitsAt(r), n)
	return putAll(ms, err, a.putBits)
}

func (c cdbsCodec) encode(a *Arena, n int) ([]Ref, error) {
	ms, err := cdbs.Encode(n)
	return putAll(ms, err, a.putBits)
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

func (floatCodec) compare(a, b []byte) int { return compareFloats(floatAt(a), floatAt(b)) }

func (f floatCodec) between(a *Arena, l, r []byte) (Ref, error) {
	m, err := f.betweenFloats(floatAt(l), floatAt(r))
	if err != nil {
		return 0, err
	}
	return a.putFloat(m)
}

func (f floatCodec) nbetween(a *Arena, l, r []byte, n int) ([]Ref, error) {
	vs, err := f.nbetweenFloats(floatAt(l), floatAt(r), n)
	return putAll(vs, err, a.putFloat)
}

func (f floatCodec) encode(a *Arena, n int) ([]Ref, error) {
	vs, err := f.encodeFloats(n)
	return putAll(vs, err, a.putFloat)
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
func (qedCodec) compare(a, b []byte) int {
	n := min(bytes.IndexByte(a, 0)+1, len(b))
	return bytes.Compare(a[:n], b[:n])
}

func (qedCodec) marshal(dst, b []byte) []byte {
	return append(dst, qed.Marshal([]qed.Code{codeAt(b)})...)
}

func (qedCodec) between(a *Arena, l, r []byte) (Ref, error) {
	m, err := qed.Between(codeAt(l), codeAt(r))
	if err != nil {
		return 0, err
	}
	return a.putCode(m)
}

func (qedCodec) nbetween(a *Arena, l, r []byte, n int) ([]Ref, error) {
	cs, err := qed.NBetween(codeAt(l), codeAt(r), n)
	return putAll(cs, err, a.putCode)
}

func (qedCodec) encode(a *Arena, n int) ([]Ref, error) {
	cs, err := qed.Encode(n)
	return putAll(cs, err, a.putCode)
}
