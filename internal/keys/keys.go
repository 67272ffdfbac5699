// Package keys defines the ordered-key codecs that parameterise the
// containment labeling scheme: the "start" and "end" endpoint
// encodings the CDBS paper compares. A codec knows how to produce the
// initial keys for positions 1..n, whether and how a key can be
// created between two existing keys, how keys compare, and how much
// storage a key list costs — the quantities behind Figures 5–7 and
// Table 4.
//
// Every codec is written once, as kernels over its own key type
// (bit strings, float64, QED codes), and reached through an Arena
// (arena.go), which is how a containment labeling holds its endpoints:
// a key of the CDBS or QED codecs short enough lives in its Ref, the
// rest are stored back to back in one byte slice. The static codecs'
// and QED's kernels run over views of the keys and their results are
// copied in; the CDBS codes are spliced where they will live.
package keys

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitstr"
)

// Key is an opaque ordered key; its concrete type belongs to the codec
// that produced it (Arena.Key).
type Key any

// ErrNoRoom reports that no key exists between the given neighbors
// without re-assigning existing keys. Static codecs (integers,
// exhausted floats) return it; the scheme layer responds by
// re-labeling.
var ErrNoRoom = errors.New("keys: no room between neighboring keys without re-labeling")

// Codec is one endpoint encoding. Its keys are made, compared and
// accounted for by an Arena.
type Codec interface {
	// Name returns the codec's display name as used in the paper's
	// figures, e.g. "V-CDBS".
	Name() string
	// Dynamic reports whether a key can always be made between two
	// others (no re-labeling ever needed for order maintenance).
	Dynamic() bool
}

// OrderedBytes is implemented by the codecs whose keys are strings of
// symbols compared symbol by symbol, a proper prefix first, that end
// in a nonzero symbol: CDBS codes (bits, ending in 1) and QED codes
// (the digits 1..3). Padded with zero symbols, two such keys keep
// their order and stay distinct, so the packed symbols are an
// order-preserving byte form (Arena.AppendOrdered; the paged index
// keys its B-tree with it) and a key of at most 31 bits is held in its
// Ref (the word form). Binary and float keys are numbers, whose order
// bytewise comparison does not follow.
type OrderedBytes interface {
	Codec
	// symbol returns the bits of one symbol.
	symbol() int
}

// tally is what every codec's size accounting reduces a key list to:
// how many keys, their summed size in bits and the largest.
type tally struct{ count, sum, max int }

func (t *tally) add(bits int) {
	t.count++
	t.sum += bits
	if bits > t.max {
		t.max = bits
	}
}

// bitStringTotal is the Section 4.2 accounting shared by the four
// bit-string codecs: fixed width charges every key the width of the
// largest plus one stored width, variable width charges each key its
// own bits plus a length field wide enough for the largest.
func bitStringTotal(fixed bool, t tally) int {
	if t.count == 0 {
		return 0
	}
	if fixed {
		return t.count*t.max + uintBits(uint64(t.max))
	}
	return t.sum + t.count*uintBits(uint64(t.max))
}

// ---------------------------------------------------------------------------
// Integer codecs (V-Binary, F-Binary)

type intCodec struct {
	bitStored
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

func (c intCodec) encodeBits(n int) ([]bitstr.BitString, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: cannot encode %d", n)
	}
	out := make([]bitstr.BitString, n)
	width := uintBits(uint64(n))
	for i := range out {
		out[i] = c.fromUint(uint64(i+1), width)
	}
	return out, nil
}

// intBounds decodes a gap's bounds (the empty string is an open one,
// read as 0) and returns the wider of their widths.
func intBounds(l, r bitstr.BitString) (lv, rv uint64, width int, err error) {
	if lv, err = l.Uint(); err != nil {
		return 0, 0, 0, err
	}
	if rv, err = r.Uint(); err != nil {
		return 0, 0, 0, err
	}
	return lv, rv, max(l.Len(), r.Len()), nil
}

// betweenBits is Between on the codec's own keys; the empty bit string
// is an open bound.
func (c intCodec) betweenBits(l, r bitstr.BitString) (bitstr.BitString, error) {
	lv, rv, width, err := intBounds(l, r)
	if err != nil {
		return bitstr.Empty, err
	}
	switch {
	case l.IsEmpty() && r.IsEmpty():
		return c.fromUint(1, 1), nil
	case l.IsEmpty():
		if rv <= 1 {
			return bitstr.Empty, ErrNoRoom
		}
		return c.fromUint(rv-1, width), nil
	case r.IsEmpty():
		return c.fromUint(lv+1, width), nil
	case lv >= rv:
		return bitstr.Empty, fmt.Errorf("keys: %d not below %d", lv, rv)
	case rv-lv < 2:
		// Consecutive integers: the paper's motivating case — every
		// insertion in a compact integer containment labeling forces
		// re-labeling.
		return bitstr.Empty, ErrNoRoom
	}
	return c.fromUint(lv+(rv-lv)/2, width), nil
}

// nbetweenBits places n evenly spread integers in the gap, failing with
// ErrNoRoom when the gap is too tight.
func (c intCodec) nbetweenBits(l, r bitstr.BitString, n int) ([]bitstr.BitString, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: NBetween count %d is negative", n)
	}
	lv, rv, width, err := intBounds(l, r)
	if err != nil {
		return nil, err
	}
	out := make([]bitstr.BitString, n)
	if r.IsEmpty() {
		// Open right end: append consecutively.
		for i := range out {
			out[i] = c.fromUint(lv+uint64(i)+1, width)
		}
		return out, nil
	}
	if rv <= lv || rv-lv-1 < uint64(n) {
		return nil, ErrNoRoom
	}
	// Even division can collide at the edges; verify strict order.
	span, prev := rv-lv, lv
	for i := range out {
		v := lv + span*uint64(i+1)/uint64(n+1)
		if v <= prev || v >= rv {
			return nil, ErrNoRoom
		}
		out[i], prev = c.fromUint(v, width), v
	}
	return out, nil
}

// fromUint encodes a value, padding to width in fixed mode (widening
// if the value needs more bits).
func (c intCodec) fromUint(v uint64, width int) bitstr.BitString {
	if !c.fixed {
		return bitstr.FromUint(v)
	}
	return bitstr.FromUintFixed(v, max(width, uintBits(v)))
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

// compareFloats orders two keys; none is NaN, which spares the
// comparisons cmp.Compare spends on it. NaN is the kernels' open bound:
// every key is an integer, an integer step from a key, or a finite
// midpoint.
func compareFloats(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func (floatCodec) encodeFloats(n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: cannot encode %d", n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out, nil
}

func (floatCodec) betweenFloats(l, r float64) (float64, error) {
	switch {
	case math.IsNaN(l) && math.IsNaN(r):
		return 1, nil
	case math.IsNaN(l):
		return r - 1, nil
	case math.IsNaN(r):
		return l + 1, nil
	case l >= r:
		return 0, fmt.Errorf("keys: %g not below %g", l, r)
	}
	mid := l + (r-l)/2
	if mid <= l || mid >= r || math.IsInf(mid, 0) {
		// Precision exhausted: float-point cannot avoid re-labeling.
		return 0, ErrNoRoom
	}
	return mid, nil
}

// nbetweenFloats places n evenly spread floats in the gap, failing with
// ErrNoRoom when precision runs out.
func (floatCodec) nbetweenFloats(l, r float64, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("keys: NBetween count %d is negative", n)
	}
	switch {
	case !math.IsNaN(l):
	case !math.IsNaN(r):
		l = r - float64(n) - 1
	default:
		l = 0
	}
	out := make([]float64, n)
	if math.IsNaN(r) {
		for i := range out {
			out[i] = l + float64(i) + 1
		}
		return out, nil
	}
	prev := l
	for i := range out {
		v := l + (r-l)*float64(i+1)/float64(n+1)
		if v <= prev || v >= r || math.IsInf(v, 0) {
			return nil, ErrNoRoom
		}
		out[i], prev = v, v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// CDBS codecs

type cdbsCodec struct {
	bitStored
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
func (c cdbsCodec) symbol() int   { return 1 }

// ---------------------------------------------------------------------------
// QED codec

type qedCodec struct{}

// QED returns the quaternary codec ("QED-Containment"): separator-
// delimited codes that never overflow.
func QED() Codec { return qedCodec{} }

func (qedCodec) Name() string  { return "QED" }
func (qedCodec) Dynamic() bool { return true }
func (qedCodec) symbol() int   { return 2 }
