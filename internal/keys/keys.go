// Package keys defines the ordered-key codecs that parameterise the
// containment labeling scheme: the "start" and "end" endpoint
// encodings the CDBS paper compares. A codec knows how to produce the
// initial keys for positions 1..n, whether and how a key can be
// created between two existing keys, how keys compare, and how much
// storage a key list costs — the quantities behind Figures 5–7 and
// Table 4.
package keys

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/qed"
)

// Key is an opaque ordered key; its concrete type belongs to the codec
// that produced it.
type Key any

// ErrNoRoom reports that no key exists between the given neighbors
// without re-assigning existing keys. Static codecs (integers,
// exhausted floats) return it; the scheme layer responds by
// re-labeling.
var ErrNoRoom = errors.New("keys: no room between neighboring keys without re-labeling")

// ErrWrongKeyType reports a key from a different codec.
var ErrWrongKeyType = errors.New("keys: key has wrong concrete type for this codec")

// Codec is one endpoint encoding.
type Codec interface {
	// Name returns the codec's display name as used in the paper's
	// figures, e.g. "V-CDBS".
	Name() string
	// Dynamic reports whether Between can always succeed (no
	// re-labeling ever needed for order maintenance).
	Dynamic() bool
	// Encode returns the initial keys for positions 1..n in order.
	Encode(n int) ([]Key, error)
	// Between returns a key strictly between l and r; a nil bound is
	// open. It returns ErrNoRoom when only re-labeling can make room.
	Between(l, r Key) (Key, error)
	// NBetween returns n ordered keys strictly between l and r,
	// assigned evenly so bulk insertions get short keys. It returns
	// ErrNoRoom when the gap cannot hold n keys without re-labeling.
	NBetween(l, r Key, n int) ([]Key, error)
	// Compare orders two keys.
	Compare(a, b Key) int
	// TotalBits returns the storage footprint of a key list under the
	// paper's Section 4.2 accounting, including per-key overhead
	// (length fields, separators) and per-list overhead (a stored
	// width).
	TotalBits(ks []Key) int
}

// OrderedBytes is implemented by codecs whose keys admit an
// order-preserving raw-byte encoding: bytes.Compare on two encodings
// must agree with Compare, and the encoding must be unique per key.
// Paged index storage (internal/store) keys its B-trees with these
// bytes. CDBS codes qualify because every code ends in a 1-bit, so
// MSB-first byte packing with zero padding is bijective and preserves
// the bitwise lexicographic order; QED codes qualify because the
// digit string itself is the comparison key. Binary and float codecs
// do not (their numeric order disagrees with bytewise order), so they
// deliberately lack this method.
type OrderedBytes interface {
	// AppendOrdered appends the order-preserving encoding of k to dst.
	AppendOrdered(dst []byte, k Key) ([]byte, error)
}

// ---------------------------------------------------------------------------
// Integer codecs (V-Binary, F-Binary)

type intCodec struct {
	fixed bool
}

// VBinary returns the variable-length binary integer codec
// ("V-Binary-Containment" in the paper). Keys are stored in their
// actual V-Binary form — leading-zero-free bit strings whose numeric
// order is (length, bits) — so comparison pays the same storage-format
// costs the paper's implementation does.
func VBinary() Codec { return intCodec{fixed: false} }

// FBinary returns the fixed-width binary integer codec
// ("F-Binary-Containment"): zero-padded bit strings that compare
// bitwise.
func FBinary() Codec { return intCodec{fixed: true} }

func (c intCodec) Name() string {
	if c.fixed {
		return "F-Binary"
	}
	return "V-Binary"
}

func (c intCodec) Dynamic() bool { return false }

func (c intCodec) Encode(n int) ([]Key, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: cannot encode %d", n)
	}
	out := make([]Key, n)
	if c.fixed {
		width := uintBits(uint64(n))
		for i := range out {
			out[i] = bitstr.FromUintFixed(uint64(i+1), width)
		}
		return out, nil
	}
	for i := range out {
		out[i] = bitstr.FromUint(uint64(i + 1))
	}
	return out, nil
}

// intValue decodes a binary key back to its integer.
func intValue(k Key) (uint64, error) {
	b, ok := k.(bitstr.BitString)
	if !ok {
		return 0, fmt.Errorf("%w: %T", ErrWrongKeyType, k)
	}
	return b.Uint()
}

func (c intCodec) Between(l, r Key) (Key, error) {
	if l == nil && r == nil {
		return c.fromUint(1, 1), nil
	}
	var lv, rv uint64
	var width int
	if l != nil {
		v, err := intValue(l)
		if err != nil {
			return nil, err
		}
		lv = v
		width = l.(bitstr.BitString).Len()
	}
	if r != nil {
		v, err := intValue(r)
		if err != nil {
			return nil, err
		}
		rv = v
		if w := r.(bitstr.BitString).Len(); w > width {
			width = w
		}
	}
	if l != nil && r != nil && lv >= rv {
		return nil, fmt.Errorf("keys: %d not below %d", lv, rv)
	}
	switch {
	case l == nil:
		if rv <= 1 {
			return nil, ErrNoRoom
		}
		return c.fromUint(rv-1, width), nil
	case r == nil:
		return c.fromUint(lv+1, width), nil
	case rv-lv < 2:
		// Consecutive integers: the paper's motivating case — every
		// insertion in a compact integer containment labeling forces
		// re-labeling.
		return nil, ErrNoRoom
	}
	return c.fromUint(lv+(rv-lv)/2, width), nil
}

// NBetween places n evenly spread integers in the gap, failing with
// ErrNoRoom when the gap is too tight.
func (c intCodec) NBetween(l, r Key, n int) ([]Key, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: NBetween count %d is negative", n)
	}
	var lv, rv uint64
	var width int
	if l != nil {
		v, err := intValue(l)
		if err != nil {
			return nil, err
		}
		lv = v
		width = l.(bitstr.BitString).Len()
	}
	if r == nil {
		// Open right end: append consecutively.
		out := make([]Key, n)
		for i := range out {
			out[i] = c.fromUint(lv+uint64(i)+1, width)
		}
		return out, nil
	}
	v, err := intValue(r)
	if err != nil {
		return nil, err
	}
	rv = v
	if w := r.(bitstr.BitString).Len(); w > width {
		width = w
	}
	if rv <= lv || rv-lv-1 < uint64(n) {
		return nil, ErrNoRoom
	}
	out := make([]Key, n)
	span := rv - lv
	for i := range out {
		out[i] = c.fromUint(lv+span*uint64(i+1)/uint64(n+1), width)
	}
	// Even division can collide at the edges; verify strict order.
	for i := range out {
		vi, _ := intValue(out[i])
		if vi <= lv || vi >= rv {
			return nil, ErrNoRoom
		}
		if i > 0 {
			prev, _ := intValue(out[i-1])
			if vi <= prev {
				return nil, ErrNoRoom
			}
		}
	}
	return out, nil
}

// fromUint encodes a value, padding to width in fixed mode (widening
// if the value needs more bits).
func (c intCodec) fromUint(v uint64, width int) bitstr.BitString {
	if !c.fixed {
		return bitstr.FromUint(v)
	}
	if need := uintBits(v); need > width {
		width = need
	}
	return bitstr.FromUintFixed(v, width)
}

func (c intCodec) Compare(a, b Key) int {
	av, bv := a.(bitstr.BitString), b.(bitstr.BitString)
	// Numeric order on leading-zero-free codes: shorter means
	// smaller; equal lengths compare bitwise. (Fixed-width codes have
	// equal lengths, so this is plain bitwise comparison for them.)
	switch {
	case av.Len() < bv.Len():
		return -1
	case av.Len() > bv.Len():
		return 1
	}
	return av.Compare(bv)
}

func (c intCodec) TotalBits(ks []Key) int {
	if len(ks) == 0 {
		return 0
	}
	maxBits := 1
	total := 0
	for _, k := range ks {
		b := k.(bitstr.BitString).Len()
		total += b
		if b > maxBits {
			maxBits = b
		}
	}
	if c.fixed {
		// Every key at the width of the largest, plus one width field.
		return len(ks)*maxBits + uintBits(uint64(maxBits))
	}
	// Variable width plus a per-key length field.
	return total + len(ks)*uintBits(uint64(maxBits))
}

// uintBits returns the bit length of v, with a 1-bit minimum (the
// V-Binary encoding of 0 is "0").
func uintBits(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

// ---------------------------------------------------------------------------
// Float-point codec (QRS, Amagasa et al.)

type floatCodec struct{}

// Float returns the float-point codec ("Float-point-Containment"):
// 64-bit IEEE endpoints, midpoint insertion. It is dynamic only until
// the mantissa runs out — the precision limit Section 2.1 discusses
// (the paper's reference implementation exhausted after ~18 insertions
// at one spot; IEEE-754 doubles last for ~52 before ErrNoRoom).
func Float() Codec { return floatCodec{} }

func (floatCodec) Name() string  { return "Float-point" }
func (floatCodec) Dynamic() bool { return false }

func (floatCodec) Encode(n int) ([]Key, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: cannot encode %d", n)
	}
	out := make([]Key, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out, nil
}

func (floatCodec) Between(l, r Key) (Key, error) {
	if l == nil && r == nil {
		return float64(1), nil
	}
	var lv, rv float64
	if l != nil {
		v, ok := l.(float64)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, l)
		}
		lv = v
	} else {
		v, ok := r.(float64)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, r)
		}
		return v - 1, nil
	}
	if r == nil {
		return lv + 1, nil
	}
	v, ok := r.(float64)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, r)
	}
	rv = v
	if lv >= rv {
		return nil, fmt.Errorf("keys: %g not below %g", lv, rv)
	}
	mid := lv + (rv-lv)/2
	if mid <= lv || mid >= rv || math.IsInf(mid, 0) {
		// Precision exhausted: float-point cannot avoid re-labeling.
		return nil, ErrNoRoom
	}
	return mid, nil
}

// NBetween places n evenly spread floats in the gap, failing with
// ErrNoRoom when precision runs out.
func (f floatCodec) NBetween(l, r Key, n int) ([]Key, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: NBetween count %d is negative", n)
	}
	var lv float64
	if l != nil {
		v, ok := l.(float64)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, l)
		}
		lv = v
	} else if r != nil {
		v, ok := r.(float64)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, r)
		}
		lv = v - float64(n) - 1
	} else {
		lv = 0
	}
	if r == nil {
		out := make([]Key, n)
		for i := range out {
			out[i] = lv + float64(i) + 1
		}
		return out, nil
	}
	rv, ok := r.(float64)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, r)
	}
	out := make([]Key, n)
	prev := lv
	for i := range out {
		v := lv + (rv-lv)*float64(i+1)/float64(n+1)
		if v <= prev || v >= rv || math.IsInf(v, 0) {
			return nil, ErrNoRoom
		}
		out[i] = v
		prev = v
	}
	return out, nil
}

func (floatCodec) Compare(a, b Key) int {
	av, bv := a.(float64), b.(float64)
	switch {
	case av < bv:
		return -1
	case av > bv:
		return 1
	}
	return 0
}

func (floatCodec) TotalBits(ks []Key) int { return 64 * len(ks) }

// ---------------------------------------------------------------------------
// CDBS codecs

type cdbsCodec struct {
	fixed bool
}

// VCDBS returns the variable-length CDBS codec ("V-CDBS-Containment"),
// the paper's headline scheme.
func VCDBS() Codec { return cdbsCodec{fixed: false} }

// FCDBS returns the fixed-width CDBS codec ("F-CDBS-Containment").
func FCDBS() Codec { return cdbsCodec{fixed: true} }

func (c cdbsCodec) Name() string {
	if c.fixed {
		return "F-CDBS"
	}
	return "V-CDBS"
}

func (c cdbsCodec) Dynamic() bool { return true }

func (c cdbsCodec) Encode(n int) ([]Key, error) {
	codes, err := cdbs.Encode(n)
	if err != nil {
		return nil, err
	}
	out := make([]Key, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (c cdbsCodec) Between(l, r Key) (Key, error) {
	lb, rb, err := bitBounds(l, r)
	if err != nil {
		return nil, err
	}
	return cdbs.Between(lb, rb)
}

func bitBounds(l, r Key) (bitstr.BitString, bitstr.BitString, error) {
	lb, rb := bitstr.Empty, bitstr.Empty
	if l != nil {
		v, ok := l.(bitstr.BitString)
		if !ok {
			return lb, rb, fmt.Errorf("%w: %T", ErrWrongKeyType, l)
		}
		lb = v
	}
	if r != nil {
		v, ok := r.(bitstr.BitString)
		if !ok {
			return lb, rb, fmt.Errorf("%w: %T", ErrWrongKeyType, r)
		}
		rb = v
	}
	return lb, rb, nil
}

// NBetween delegates to Algorithm 2's even subdivision.
func (c cdbsCodec) NBetween(l, r Key, n int) ([]Key, error) {
	lb, rb, err := bitBounds(l, r)
	if err != nil {
		return nil, err
	}
	codes, err := cdbs.NBetween(lb, rb, n)
	if err != nil {
		return nil, err
	}
	out := make([]Key, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (c cdbsCodec) Compare(a, b Key) int {
	return a.(bitstr.BitString).Compare(b.(bitstr.BitString))
}

// AppendOrdered implements OrderedBytes: packed MSB-first code bytes.
// CDBS codes end in a 1-bit, so the zero padding in the final byte
// never makes two distinct codes collide, and bytewise comparison of
// the packed form equals bitwise comparison of the codes.
func (c cdbsCodec) AppendOrdered(dst []byte, k Key) ([]byte, error) {
	b, ok := k.(bitstr.BitString)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, k)
	}
	return append(dst, b.Bytes()...), nil
}

func (c cdbsCodec) TotalBits(ks []Key) int {
	if len(ks) == 0 {
		return 0
	}
	maxLen := 1
	total := 0
	for _, k := range ks {
		n := k.(bitstr.BitString).Len()
		total += n
		if n > maxLen {
			maxLen = n
		}
	}
	if c.fixed {
		// Codes padded to the width of the longest, one width field.
		return len(ks)*maxLen + uintBits(uint64(maxLen))
	}
	// Variable codes with per-key length fields.
	return total + len(ks)*uintBits(uint64(maxLen))
}

// ---------------------------------------------------------------------------
// QED codec

type qedCodec struct{}

// QED returns the quaternary codec ("QED-Containment"): separator-
// delimited codes that never overflow.
func QED() Codec { return qedCodec{} }

func (qedCodec) Name() string  { return "QED" }
func (qedCodec) Dynamic() bool { return true }

func (qedCodec) Encode(n int) ([]Key, error) {
	codes, err := qed.Encode(n)
	if err != nil {
		return nil, err
	}
	out := make([]Key, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (qedCodec) Between(l, r Key) (Key, error) {
	lc, rc := qed.Empty, qed.Empty
	if l != nil {
		v, ok := l.(qed.Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, l)
		}
		lc = v
	}
	if r != nil {
		v, ok := r.(qed.Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, r)
		}
		rc = v
	}
	return qed.Between(lc, rc)
}

// NBetween delegates to QED's even subdivision.
func (qedCodec) NBetween(l, r Key, n int) ([]Key, error) {
	lc, rc := qed.Empty, qed.Empty
	if l != nil {
		v, ok := l.(qed.Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, l)
		}
		lc = v
	}
	if r != nil {
		v, ok := r.(qed.Code)
		if !ok {
			return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, r)
		}
		rc = v
	}
	codes, err := qed.NBetween(lc, rc, n)
	if err != nil {
		return nil, err
	}
	out := make([]Key, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (qedCodec) Compare(a, b Key) int {
	return a.(qed.Code).Compare(b.(qed.Code))
}

// AppendOrdered implements OrderedBytes: the raw digit bytes. QED
// comparison is Go string order on the digit values, so the digit
// string is its own order-preserving encoding.
func (qedCodec) AppendOrdered(dst []byte, k Key) ([]byte, error) {
	c, ok := k.(qed.Code)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrWrongKeyType, k)
	}
	for i := 0; i < c.Len(); i++ {
		dst = append(dst, c.Digit(i))
	}
	return dst, nil
}

func (qedCodec) TotalBits(ks []Key) int {
	total := 0
	for _, k := range ks {
		total += k.(qed.Code).BitsWithSeparator()
	}
	return total
}
