package keys

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/qed"
)

// boxed is the Key-level reference an Arena is held to: each codec's
// kernels over boxed keys, a nil bound open, the way the codecs were
// called before their keys moved into arenas. Only tests use it.
type boxed struct{ Codec }

func box(c Codec) boxed { return boxed{c} }

// errWrongKeyType reports a key from a different codec.
var errWrongKeyType = errors.New("keys: key has wrong concrete type for this codec")

// unbox returns the codec's own form of a bound: open for nil.
func unbox[K any](k Key, open K) (K, error) {
	if k == nil {
		return open, nil
	}
	v, ok := k.(K)
	if !ok {
		return open, fmt.Errorf("%w: %T", errWrongKeyType, k)
	}
	return v, nil
}

// boxAll turns a kernel's run of keys into Keys.
func boxAll[K any](ks []K, err error) ([]Key, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Key, len(ks))
	for i, k := range ks {
		out[i] = k
	}
	return out, nil
}

// gap runs a kernel over a gap's unboxed bounds.
func gap[K, R any](l, r Key, open K, f func(l, r K) (R, error)) (R, error) {
	var none R
	lv, err := unbox(l, open)
	if err != nil {
		return none, err
	}
	rv, err := unbox(r, open)
	if err != nil {
		return none, err
	}
	return f(lv, rv)
}

// openFloat is the float kernels' open bound.
var openFloat = math.NaN()

func (b boxed) Encode(n int) ([]Key, error) {
	switch c := b.Codec.(type) {
	case intCodec:
		return boxAll(c.encodeBits(n))
	case floatCodec:
		return boxAll(c.encodeFloats(n))
	case cdbsCodec:
		return boxAll(cdbs.Encode(n))
	}
	return boxAll(qed.Encode(n))
}

func (b boxed) Between(l, r Key) (Key, error) {
	var m Key
	var err error
	switch c := b.Codec.(type) {
	case intCodec:
		m, err = gap(l, r, bitstr.Empty, c.betweenBits)
	case floatCodec:
		m, err = gap(l, r, openFloat, c.betweenFloats)
	case cdbsCodec:
		m, err = gap(l, r, bitstr.Empty, cdbs.Between)
	default:
		m, err = gap(l, r, qed.Empty, qed.Between)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (b boxed) NBetween(l, r Key, n int) ([]Key, error) {
	switch c := b.Codec.(type) {
	case intCodec:
		return boxAll(gap(l, r, bitstr.Empty, func(l, r bitstr.BitString) ([]bitstr.BitString, error) { return c.nbetweenBits(l, r, n) }))
	case floatCodec:
		return boxAll(gap(l, r, openFloat, func(l, r float64) ([]float64, error) { return c.nbetweenFloats(l, r, n) }))
	case cdbsCodec:
		return boxAll(gap(l, r, bitstr.Empty, func(l, r bitstr.BitString) ([]bitstr.BitString, error) { return cdbs.NBetween(l, r, n) }))
	}
	return boxAll(gap(l, r, qed.Empty, func(l, r qed.Code) ([]qed.Code, error) { return qed.NBetween(l, r, n) }))
}

func (b boxed) Compare(x, y Key) int {
	switch b.Codec.(type) {
	case intCodec:
		// Numeric order on leading-zero-free codes: shorter is smaller,
		// equal lengths compare bitwise.
		xb, yb := x.(bitstr.BitString), y.(bitstr.BitString)
		if xb.Len() != yb.Len() {
			return sign(xb.Len() - yb.Len())
		}
		return xb.Compare(yb)
	case floatCodec:
		return compareFloats(x.(float64), y.(float64))
	case cdbsCodec:
		return x.(bitstr.BitString).Compare(y.(bitstr.BitString))
	}
	return x.(qed.Code).Compare(y.(qed.Code))
}

func (b boxed) TotalBits(ks []Key) int {
	var t tally
	for _, k := range ks {
		switch k := k.(type) {
		case bitstr.BitString:
			t.add(k.Len())
		case float64:
			t.add(64)
		case qed.Code:
			t.add(k.BitsWithSeparator())
		}
	}
	switch c := b.Codec.(type) {
	case intCodec:
		return bitStringTotal(c.fixed, t)
	case cdbsCodec:
		return bitStringTotal(c.fixed, t)
	}
	return t.sum
}

// AppendOrdered appends the order-preserving form of a CDBS or QED key:
// the packed bits, or the digits.
func (b boxed) AppendOrdered(dst []byte, k Key) ([]byte, error) {
	switch k := k.(type) {
	case bitstr.BitString:
		return k.AppendBytes(dst), nil
	case qed.Code:
		return k.AppendDigits(dst), nil
	}
	return nil, fmt.Errorf("%w: %T", errWrongKeyType, k)
}

// AppendKey serialises a key: a bit string as its bit count and bits,
// a float as 8 big-endian bytes, a QED code as its separator-terminated
// 2-bit packing.
func (b boxed) AppendKey(dst []byte, k Key) ([]byte, error) {
	switch b.Codec.(type) {
	case floatCodec:
		if v, ok := k.(float64); ok {
			return binary.BigEndian.AppendUint64(dst, math.Float64bits(v)), nil
		}
	case qedCodec:
		if c, ok := k.(qed.Code); ok {
			return append(dst, qed.Marshal([]qed.Code{c})...), nil
		}
	default:
		if s, ok := k.(bitstr.BitString); ok {
			return s.AppendTo(dst), nil
		}
	}
	return nil, fmt.Errorf("%w: %T", errWrongKeyType, k)
}

// DecodeKey parses one key AppendKey wrote from the front of data,
// returning it and the bytes it took.
func (b boxed) DecodeKey(data []byte) (Key, int, error) {
	switch b.Codec.(type) {
	case floatCodec:
		if len(data) < 8 {
			return nil, 0, errors.New("keys: truncated float key")
		}
		return math.Float64frombits(binary.BigEndian.Uint64(data)), 8, nil
	case qedCodec:
		digits := 0
		for ; ; digits++ {
			if digits/4 >= len(data) {
				return nil, 0, errors.New("keys: truncated QED key")
			}
			if data[digits/4]>>(6-2*(digits%4))&3 == 0 {
				break
			}
		}
		used := (digits + 1 + 3) / 4 // the digits and the separator, byte-padded
		codes, err := qed.Unmarshal(data[:used])
		if err != nil || len(codes) != 1 {
			return nil, 0, fmt.Errorf("keys: not one QED code: %v", err)
		}
		return codes[0], used, nil
	}
	k, used, err := bitstr.DecodeFrom(data)
	if err != nil {
		return nil, 0, err
	}
	return k, used, nil
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}
