package bitstr

import (
	"fmt"
	"strings"
)

// This file retains the original bit-at-a-time kernel implementations,
// verbatim in behaviour, under Ref* names. They are the ground truth
// for the differential fuzz targets (FuzzBitstrKernels and
// FuzzBitstrCodecs) and the "before" baseline the benchmark JSON
// (BENCH_*.json) reports next to each word-parallel kernel. Production
// code must not call them.

// RefCompare is the bit-at-a-time reference for Compare.
func RefCompare(s, t BitString) int {
	m := s.n
	if t.n < m {
		m = t.n
	}
	for i := 0; i < m; i++ {
		a, b := s.Bit(i), t.Bit(i)
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	switch {
	case s.n < t.n:
		return -1
	case s.n > t.n:
		return 1
	}
	return 0
}

// RefEqual is the reference for Equal: a length check plus a full
// reference compare.
func RefEqual(s, t BitString) bool { return s.n == t.n && RefCompare(s, t) == 0 }

// RefHasPrefix is the bit-at-a-time reference for HasPrefix.
func RefHasPrefix(s, p BitString) bool {
	if p.n > s.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		if s.Bit(i) != p.Bit(i) {
			return false
		}
	}
	return true
}

// RefConcat is the bit-at-a-time reference for Concat.
func RefConcat(s, t BitString) BitString {
	if t.n == 0 {
		return s
	}
	if s.n == 0 {
		return t
	}
	b := builderWithCap(s.n + t.n)
	for i := 0; i < s.n; i++ {
		b.appendBit(s.Bit(i))
	}
	for i := 0; i < t.n; i++ {
		b.appendBit(t.Bit(i))
	}
	return b.bitString()
}

// RefTrimTrailingZeros is the bit-at-a-time reference for
// TrimTrailingZeros, including the copying prefix it used.
func RefTrimTrailingZeros(s BitString) BitString {
	n := s.n
	for n > 0 {
		if (s.data[(n-1)/8]>>(7-(n-1)%8))&1 == 1 {
			break
		}
		n--
	}
	if n == 0 {
		return Empty
	}
	out := make([]byte, bytesFor(n))
	copy(out, s.data[:bytesFor(n)])
	clearSpareBits(out, n)
	return BitString{data: out, n: n}
}

// RefUint is the bit-at-a-time reference for Uint.
func RefUint(s BitString) (uint64, error) {
	if s.n > 64 {
		return 0, fmt.Errorf("bitstr: %d bits exceed uint64", s.n)
	}
	var v uint64
	for i := 0; i < s.n; i++ {
		v = v<<1 | uint64(s.Bit(i))
	}
	return v, nil
}

// RefString is the bit-at-a-time reference for String.
func RefString(s BitString) string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		sb.WriteByte('0' + s.Bit(i))
	}
	return sb.String()
}

// RefFromUint is the bit-at-a-time reference for FromUint.
func RefFromUint(v uint64) BitString {
	if v == 0 {
		return MustParse("0")
	}
	width := 0
	for t := v; t > 0; t >>= 1 {
		width++
	}
	return RefFromUintFixed(v, width)
}

// RefFromUintFixed is the bit-at-a-time reference for FromUintFixed,
// minus the argument validation (callers fuzz valid inputs only).
func RefFromUintFixed(v uint64, width int) BitString {
	b := builderWithCap(width)
	for i := width - 1; i >= 0; i-- {
		b.appendBit(byte((v >> uint(i)) & 1))
	}
	return b.bitString()
}
