package containment

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/keys"
	"repro/internal/qed"
)

// reference is one codec's Key-level kernels, written here from the
// codec's own rules so that the oracle does not run the code it
// checks: package cdbs, qed and bitstr for the dynamic codecs, and the
// integer and float midpoint rules for the static ones. A nil bound is
// open; an ordered form of nil is none.
type reference struct {
	Encode        func(n int) ([]keys.Key, error)
	Between       func(l, r keys.Key) (keys.Key, error)
	NBetween      func(l, r keys.Key, n int) ([]keys.Key, error)
	Compare       func(a, b keys.Key) int
	TotalBits     func(ks []keys.Key) int
	AppendKey     func(dst []byte, k keys.Key) []byte
	AppendOrdered func(dst []byte, k keys.Key) []byte
}

func referenceOf(c keys.Codec) reference {
	switch c.Name() {
	case "V-Binary", "F-Binary":
		return intReference(c.Name() == "F-Binary")
	case "Float-point":
		return floatReference()
	case "V-CDBS", "F-CDBS":
		return cdbsReference(c.Name() == "F-CDBS")
	case "QED":
		return qedReference()
	}
	panic("no reference for codec " + c.Name())
}

func boxAll[K any](ks []K, err error) ([]keys.Key, error) {
	if err != nil {
		return nil, err
	}
	out := make([]keys.Key, len(ks))
	for i, k := range ks {
		out[i] = k
	}
	return out, nil
}

func box[K any](k K, err error) (keys.Key, error) {
	if err != nil {
		return nil, err
	}
	return k, nil
}

func bitsOf(k keys.Key) bitstr.BitString {
	if k == nil {
		return bitstr.Empty
	}
	return k.(bitstr.BitString)
}

// bitTotal is the paper's Section 4.2 accounting of bit-string keys: a
// fixed width charges every key the longest's bits plus one stored
// width, a variable width each key its own bits plus a length field
// wide enough for the longest.
func bitTotal(fixed bool) func(ks []keys.Key) int {
	return func(ks []keys.Key) int {
		if len(ks) == 0 {
			return 0
		}
		sum, most := 0, 0
		for _, k := range ks {
			sum += bitsOf(k).Len()
			most = max(most, bitsOf(k).Len())
		}
		if fixed {
			return len(ks)*most + uintBits(uint64(most))
		}
		return sum + len(ks)*uintBits(uint64(most))
	}
}

func uintBits(v uint64) int { return max(bits.Len64(v), 1) }

func cdbsReference(fixed bool) reference {
	return reference{
		Encode:    func(n int) ([]keys.Key, error) { return boxAll(cdbs.Encode(n)) },
		Between:   func(l, r keys.Key) (keys.Key, error) { return box(cdbs.Between(bitsOf(l), bitsOf(r))) },
		NBetween:  func(l, r keys.Key, n int) ([]keys.Key, error) { return boxAll(cdbs.NBetween(bitsOf(l), bitsOf(r), n)) },
		Compare:   func(a, b keys.Key) int { return bitsOf(a).Compare(bitsOf(b)) },
		TotalBits: bitTotal(fixed),
		AppendKey: func(dst []byte, k keys.Key) []byte { return bitsOf(k).AppendTo(dst) },
		AppendOrdered: func(dst []byte, k keys.Key) []byte {
			return bitsOf(k).AppendBytes(dst)
		},
	}
}

func qedReference() reference {
	code := func(k keys.Key) qed.Code {
		if k == nil {
			return qed.Empty
		}
		return k.(qed.Code)
	}
	return reference{
		Encode:   func(n int) ([]keys.Key, error) { return boxAll(qed.Encode(n)) },
		Between:  func(l, r keys.Key) (keys.Key, error) { return box(qed.Between(code(l), code(r))) },
		NBetween: func(l, r keys.Key, n int) ([]keys.Key, error) { return boxAll(qed.NBetween(code(l), code(r), n)) },
		Compare:  func(a, b keys.Key) int { return code(a).Compare(code(b)) },
		TotalBits: func(ks []keys.Key) int {
			total := 0
			for _, k := range ks {
				total += code(k).BitsWithSeparator()
			}
			return total
		},
		AppendKey:     func(dst []byte, k keys.Key) []byte { return append(dst, qed.Marshal([]qed.Code{code(k)})...) },
		AppendOrdered: func(dst []byte, k keys.Key) []byte { return code(k).AppendDigits(dst) },
	}
}

// intReference is the binary codecs' rule: positions 1..n at the width
// of n, a new key the integer midpoint of its gap, one past an open
// right end and one below an open left end, or no room.
func intReference(fixed bool) reference {
	enc := func(v uint64, width int) keys.Key {
		if fixed {
			return bitstr.FromUintFixed(v, max(width, uintBits(v)))
		}
		return bitstr.FromUint(v)
	}
	bounds := func(l, r keys.Key) (lv, rv uint64, width int) {
		lv, _ = bitsOf(l).Uint()
		rv, _ = bitsOf(r).Uint()
		return lv, rv, max(bitsOf(l).Len(), bitsOf(r).Len())
	}
	return reference{
		Encode: func(n int) ([]keys.Key, error) {
			if n < 0 {
				return nil, fmt.Errorf("cannot encode %d", n)
			}
			out := make([]keys.Key, n)
			for i := range out {
				out[i] = enc(uint64(i+1), uintBits(uint64(n)))
			}
			return out, nil
		},
		Between: func(l, r keys.Key) (keys.Key, error) {
			lv, rv, width := bounds(l, r)
			switch {
			case l == nil && r == nil:
				return enc(1, 1), nil
			case l == nil && rv <= 1:
				return nil, keys.ErrNoRoom
			case l == nil:
				return enc(rv-1, width), nil
			case r == nil:
				return enc(lv+1, width), nil
			case lv >= rv:
				return nil, fmt.Errorf("%d not below %d", lv, rv)
			case rv-lv < 2:
				return nil, keys.ErrNoRoom
			}
			return enc(lv+(rv-lv)/2, width), nil
		},
		NBetween: func(l, r keys.Key, n int) ([]keys.Key, error) {
			if n < 0 {
				return nil, fmt.Errorf("count %d is negative", n)
			}
			lv, rv, width := bounds(l, r)
			out := make([]keys.Key, n)
			if r == nil {
				for i := range out {
					out[i] = enc(lv+uint64(i)+1, width)
				}
				return out, nil
			}
			if rv <= lv || rv-lv-1 < uint64(n) {
				return nil, keys.ErrNoRoom
			}
			prev := lv
			for i := range out {
				v := lv + (rv-lv)*uint64(i+1)/uint64(n+1)
				if v <= prev || v >= rv {
					return nil, keys.ErrNoRoom
				}
				out[i], prev = enc(v, width), v
			}
			return out, nil
		},
		Compare: func(a, b keys.Key) int {
			// Numeric order: no leading zeros, so shorter is smaller.
			if d := bitsOf(a).Len() - bitsOf(b).Len(); d != 0 {
				return d
			}
			return bitsOf(a).Compare(bitsOf(b))
		},
		TotalBits: bitTotal(fixed),
		AppendKey: func(dst []byte, k keys.Key) []byte { return bitsOf(k).AppendTo(dst) },
	}
}

// floatReference is Float-point's rule: positions 1..n, a new key the
// midpoint of its gap, one past an open end, or no room once the
// midpoint is one of the bounds.
func floatReference() reference {
	val := func(k keys.Key) float64 {
		if k == nil {
			return math.NaN()
		}
		return k.(float64)
	}
	return reference{
		Encode: func(n int) ([]keys.Key, error) {
			if n < 0 {
				return nil, fmt.Errorf("cannot encode %d", n)
			}
			out := make([]keys.Key, n)
			for i := range out {
				out[i] = float64(i + 1)
			}
			return out, nil
		},
		Between: func(lk, rk keys.Key) (keys.Key, error) {
			l, r := val(lk), val(rk)
			switch {
			case lk == nil && rk == nil:
				return 1.0, nil
			case lk == nil:
				return r - 1, nil
			case rk == nil:
				return l + 1, nil
			case l >= r:
				return nil, fmt.Errorf("%g not below %g", l, r)
			}
			mid := l + (r-l)/2
			if mid <= l || mid >= r || math.IsInf(mid, 0) {
				return nil, keys.ErrNoRoom
			}
			return mid, nil
		},
		NBetween: func(lk, rk keys.Key, n int) ([]keys.Key, error) {
			if n < 0 {
				return nil, fmt.Errorf("count %d is negative", n)
			}
			l, r := val(lk), val(rk)
			switch {
			case lk != nil:
			case rk != nil:
				l = r - float64(n) - 1
			default:
				l = 0
			}
			out := make([]keys.Key, n)
			if rk == nil {
				for i := range out {
					out[i] = l + float64(i) + 1
				}
				return out, nil
			}
			prev := l
			for i := range out {
				v := l + (r-l)*float64(i+1)/float64(n+1)
				if v <= prev || v >= r || math.IsInf(v, 0) {
					return nil, keys.ErrNoRoom
				}
				out[i], prev = v, v
			}
			return out, nil
		},
		Compare: func(a, b keys.Key) int {
			switch x, y := val(a), val(b); {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		},
		TotalBits: func(ks []keys.Key) int { return 64 * len(ks) },
		AppendKey: func(dst []byte, k keys.Key) []byte {
			return binary.BigEndian.AppendUint64(dst, math.Float64bits(val(k)))
		},
	}
}
