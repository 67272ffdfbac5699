// Package qed implements the QED quaternary encoding (Li and Ling,
// "QED: A Novel Quaternary Encoding to Completely Avoid Re-labeling in
// XML Updates", CIKM 2005), which Section 6 of the CDBS paper uses for
// skewed insertions.
//
// A QED code is a string over the quaternary digits {1, 2, 3}, each
// stored in 2 bits, that ends with 2 or 3. The digit 0 never appears
// inside a code: it is reserved as the separator between consecutive
// codes in storage, so QED needs no length field and therefore never
// hits the overflow problem — re-labeling is avoided completely.
//
// The CDBS paper cites but does not reprint QED's algorithms, so the
// middle-code rules here are re-derived (and proved in the package
// tests) to satisfy the stated properties:
//
//   - between any two codes a new code always exists (no relabeling),
//   - an insertion modifies only the last quaternary symbol (2 bits)
//     of a neighbor code, plus at most one appended symbol,
//   - codes stay lexicographically ordered and end with 2 or 3.
//
// The rules, for l ≺ r (either may be empty, meaning an open end):
//
//	size(l) <  size(r):  r = y⊕2 → m = y⊕12;  r = y⊕3 → m = y⊕2
//	size(l) >= size(r):  l = x⊕3 → m = l⊕2
//	                     l = x⊕2 → m = x⊕3, unless r == x⊕3 (the
//	                     adjacent pair), in which case m = l⊕2
package qed

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// mCodeLen tracks the digit length of every code Between assigns —
// the growth signal behind QED's storage curve. One atomic update,
// no allocation, so the insertion kernel stays at its alloc pin.
var mCodeLen = metrics.Default.Histogram("qed_code_len_digits", metrics.ExpBuckets(1, 2, 12))

// Code is an immutable QED code: a sequence of quaternary digits
// 1..3 ending with 2 or 3. The zero value is the empty code.
type Code struct {
	digits string // each byte is 1, 2 or 3
}

// Empty is the empty code, used as an open bound.
var Empty = Code{}

// ErrInvalidDigit reports a digit outside {1,2,3}.
var ErrInvalidDigit = errors.New("qed: digit outside {1,2,3}")

// ErrBadEnding reports a non-empty code that does not end with 2 or 3.
var ErrBadEnding = errors.New("qed: code must end with 2 or 3")

// ErrNotOrdered reports Between(l, r) with l ⊀ r.
var ErrNotOrdered = errors.New("qed: left code is not smaller than right code")

// Parse converts a textual code such as "132" into a Code.
func Parse(s string) (Code, error) {
	for i := 0; i < len(s); i++ {
		if s[i] < '1' || s[i] > '3' {
			return Empty, fmt.Errorf("%w: %q", ErrInvalidDigit, s[i])
		}
	}
	c := Code{digits: mapASCII(s)}
	if !c.IsEmpty() && !c.EndsValid() {
		return Empty, fmt.Errorf("%w: %q", ErrBadEnding, s)
	}
	return c, nil
}

// mapASCII converts '1'..'3' bytes to digit values 1..3.
func mapASCII(s string) string {
	b := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		b[i] = s[i] - '0'
	}
	return string(b)
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(s string) Code {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// FromDigits returns the code whose digit values (1..3, not ASCII)
// are d, copying them. It is the inverse of AppendDigits and trusts d
// the way that pairing allows: Between and EncodeBetween still check
// the ending of every bound they are given.
func FromDigits(d []byte) Code { return Code{digits: string(d)} }

// AppendDigits appends the digit values of c, one byte each, to dst.
// Their bytewise order is Compare's order.
func (c Code) AppendDigits(dst []byte) []byte { return append(dst, c.digits...) }

// Len returns the number of quaternary digits.
func (c Code) Len() int { return len(c.digits) }

// IsEmpty reports whether the code has no digits.
func (c Code) IsEmpty() bool { return len(c.digits) == 0 }

// Digit returns digit i (0-based), a value in 1..3.
func (c Code) Digit(i int) byte { return c.digits[i] }

// Bits returns the code's storage size in bits: 2 per digit.
func (c Code) Bits() int { return 2 * len(c.digits) }

// BitsWithSeparator returns the storage size including the trailing
// "0" separator that delimits the code in a stream (2 more bits).
func (c Code) BitsWithSeparator() int { return c.Bits() + 2 }

// EndsValid reports whether the code ends with 2 or 3.
func (c Code) EndsValid() bool {
	if len(c.digits) == 0 {
		return false
	}
	last := c.digits[len(c.digits)-1]
	return last == 2 || last == 3
}

// Raw digit-value suffixes for single-allocation code construction:
// appending or splicing with a constant compiles to one string
// concatenation, where append(dropLast(), d...) would allocate per
// digit.
const (
	rawD2  = "\x02"
	rawD3  = "\x03"
	rawD12 = "\x01\x02"
)

// append returns c with one digit appended.
func (c Code) append(d byte) Code { return Code{digits: c.digits + string(d)} }

// dropLast returns c without its final digit.
func (c Code) dropLast() Code { return Code{digits: c.digits[:len(c.digits)-1]} }

// spliceLast returns c with its final digit replaced by the raw digit
// suffix, in one allocation.
func (c Code) spliceLast(suffix string) Code {
	return Code{digits: c.digits[:len(c.digits)-1] + suffix}
}

// Compare orders codes lexicographically: digits compare numerically
// and a proper prefix sorts before its extensions. Go string
// comparison on the digit values implements exactly that order.
func (c Code) Compare(d Code) int {
	switch {
	case c.digits < d.digits:
		return -1
	case c.digits > d.digits:
		return 1
	}
	return 0
}

// Less reports c ≺ d.
func (c Code) Less(d Code) bool { return c.Compare(d) < 0 }

// Equal reports digit-for-digit equality.
func (c Code) Equal(d Code) bool { return c.digits == d.digits }

// HasPrefix reports whether p is a prefix of c.
func (c Code) HasPrefix(p Code) bool { return strings.HasPrefix(c.digits, p.digits) }

// String renders the digits as text, e.g. "132".
func (c Code) String() string {
	b := make([]byte, len(c.digits))
	for i := 0; i < len(c.digits); i++ {
		b[i] = c.digits[i] + '0'
	}
	return string(b)
}

// Between returns a code m with l ≺ m ≺ r. Either bound may be Empty,
// meaning open. Between never fails on valid ordered input — QED's
// "completely avoid re-labeling" property.
func Between(l, r Code) (Code, error) {
	m, err := between(l, r)
	if err == nil {
		mCodeLen.Observe(float64(m.Len()))
	}
	return m, err
}

// between implements the middle-code rules with full validation.
func between(l, r Code) (Code, error) {
	if !l.IsEmpty() && !l.EndsValid() {
		return Empty, fmt.Errorf("%w: left %q", ErrBadEnding, l)
	}
	if !r.IsEmpty() && !r.EndsValid() {
		return Empty, fmt.Errorf("%w: right %q", ErrBadEnding, r)
	}
	if !l.IsEmpty() && !r.IsEmpty() && l.Compare(r) >= 0 {
		return Empty, fmt.Errorf("%w: %q vs %q", ErrNotOrdered, l, r)
	}
	return middle(l, r), nil
}

// middle applies the middle-code rules to already-validated bounds.
// It never fails on valid ordered input — QED's "completely avoid
// re-labeling" property — which is what lets EncodeBetween run the
// subdivision without per-gap error paths.
func middle(l, r Code) Code {
	if l.IsEmpty() && r.IsEmpty() {
		return Code{digits: rawD2}
	}
	if l.Len() < r.Len() {
		// Work on the right neighbor's last symbol.
		if r.digits[r.Len()-1] == 2 {
			return r.spliceLast(rawD12) // 2 → 12
		}
		return r.spliceLast(rawD2) // 3 → 2
	}
	// Work on the left neighbor's last symbol.
	if n := l.Len(); l.digits[n-1] == 2 {
		// x⊕3 fits between x⊕2 and r except for the adjacent pair
		// r == x⊕3, where the code must grow instead. (With
		// l.Len() >= r.Len(), any other r > l differs from l before
		// the last digit and so stays above x⊕3.)
		adjacent := r.Len() == n && r.digits[n-1] == 3 && r.digits[:n-1] == l.digits[:n-1]
		if !adjacent {
			return l.spliceLast(rawD3) // 2 → 3
		}
		return Code{digits: l.digits + rawD2}
	}
	return Code{digits: l.digits + rawD2} // 3 → 32
}

// NBetween returns n codes m1 ≺ … ≺ mn strictly between l and r,
// assigned by even subdivision so a bulk insertion gets short codes.
func NBetween(l, r Code, n int) ([]Code, error) {
	return EncodeBetween(l, r, n)
}

// EncodeBetween is the bulk counterpart of cdbs.EncodeBetween for the
// QED encoding: it emits n ordered codes strictly between l and r in
// one pass, validating the bounds once and applying the middle-code
// rules positionally. The output matches the gap-by-gap subdivision
// (RefNBetween) code for code; with both bounds empty the run is the
// even subdivision of the whole code universe, the same shape
// Encode(n) produces.
func EncodeBetween(l, r Code, n int) ([]Code, error) {
	if n < 0 {
		return nil, fmt.Errorf("qed: EncodeBetween count %d is negative", n)
	}
	if n == 0 {
		// Zero codes need no gap: bounds are not validated, matching the
		// historical NBetween contract the reference keeps.
		return nil, nil
	}
	if !l.IsEmpty() && !l.EndsValid() {
		return nil, fmt.Errorf("%w: left %q", ErrBadEnding, l)
	}
	if !r.IsEmpty() && !r.EndsValid() {
		return nil, fmt.Errorf("%w: right %q", ErrBadEnding, r)
	}
	if !l.IsEmpty() && !r.IsEmpty() && l.Compare(r) >= 0 {
		return nil, fmt.Errorf("%w: %q vs %q", ErrNotOrdered, l, r)
	}
	out := make([]Code, n)
	fillGap(out, l, r)
	for _, m := range out {
		mCodeLen.Observe(float64(m.Len()))
	}
	return out, nil
}

// fillGap assigns the codes of the open gap (l, r) into out: the
// middle slot gets the gap's middle code and the halves recurse with
// it as their shared bound. The slice midpoint len(out)/2 equals the
// (lo+hi+1)/2 pivot of the index-based subdivision at every depth, so
// the output matches RefNBetween exactly.
func fillGap(out []Code, l, r Code) {
	if len(out) == 0 {
		return
	}
	mid := len(out) / 2
	m := middle(l, r)
	out[mid] = m
	fillGap(out[:mid], l, m)
	fillGap(out[mid+1:], m, r)
}

// TwoBetween returns m1 ≺ m2 strictly between l and r, for containment
// (start, end) pairs.
func TwoBetween(l, r Code) (m1, m2 Code, err error) {
	m1, err = Between(l, r)
	if err != nil {
		return Empty, Empty, err
	}
	m2, err = Between(m1, r)
	if err != nil {
		return Empty, Empty, err
	}
	return m1, m2, nil
}

// Encode returns compact QED codes for the numbers 1..n in order. The
// assignment branches three ways per digit (the universe of codes of
// length ≤ k has 3^k − 1 members), so code lengths grow with log₃(n) —
// larger than CDBS's log₂(n) bits by the 2-bits-per-digit factor,
// which is the size premium Section 6 describes.
func Encode(n int) ([]Code, error) {
	if n < 0 {
		return nil, fmt.Errorf("qed: cannot encode %d numbers", n)
	}
	out := make([]Code, 0, n)
	var gen func(prefix Code, n int)
	gen = func(prefix Code, n int) {
		if n <= 0 {
			return
		}
		if n == 1 {
			out = append(out, prefix.append(2))
			return
		}
		if n == 2 {
			out = append(out, prefix.append(2), prefix.append(3))
			return
		}
		rem := n - 2
		n1 := (rem + 2) / 3
		n2 := (rem + 1) / 3
		n3 := rem / 3
		gen(prefix.append(1), n1)
		out = append(out, prefix.append(2))
		gen(prefix.append(2), n2)
		out = append(out, prefix.append(3))
		gen(prefix.append(3), n3)
	}
	gen(Empty, n)
	return out, nil
}

// MustEncode is Encode for known-good n; it panics on error.
func MustEncode(n int) []Code {
	codes, err := Encode(n)
	if err != nil {
		panic(err)
	}
	return codes
}

// Marshal packs codes into a byte stream, two bits per digit, with a
// "0" separator after every code. No length fields are needed: "0"
// never occurs inside a code, which is why QED is immune to the
// overflow problem.
func Marshal(codes []Code) []byte {
	var buf []byte
	nbits := 0
	put := func(d byte) {
		if nbits%8 == 0 {
			buf = append(buf, 0)
		}
		buf[nbits/8] |= d << (6 - nbits%8)
		nbits += 2
	}
	for _, c := range codes {
		for i := 0; i < c.Len(); i++ {
			put(c.Digit(i))
		}
		put(0)
	}
	return buf
}

// Unmarshal parses a stream produced by Marshal. Trailing zero padding
// after the final separator is ignored.
func Unmarshal(data []byte) ([]Code, error) {
	var codes []Code
	cur := Empty
	sawDigit := false
	for i := 0; i < len(data)*4; i++ {
		d := (data[i/4] >> (6 - 2*(i%4))) & 3
		if d == 0 {
			if sawDigit {
				if !cur.EndsValid() {
					return nil, fmt.Errorf("%w: %q in stream", ErrBadEnding, cur)
				}
				codes = append(codes, cur)
				cur = Empty
				sawDigit = false
			}
			continue
		}
		cur = cur.append(d)
		sawDigit = true
	}
	if sawDigit {
		return nil, errors.New("qed: stream ends inside a code (missing separator)")
	}
	return codes, nil
}
