// Package cdbs implements the Compact Dynamic Binary String encoding
// of Li, Ling and Hu, "Efficient Processing of Updates in Dynamic XML
// Data" (ICDE 2006) — the paper's primary contribution.
//
// A CDBS code is a binary string that ends with bit 1 and is compared
// lexicographically (Definition 3.1). Two properties make the encoding
// useful for dynamic ordered data:
//
//  1. Between any two consecutive codes a new code can always be
//     created, with order kept and without touching any existing code
//     (Algorithm 1 / Theorem 3.1; two codes at once per Corollary 3.3).
//  2. The initial encoding of 1..N (Algorithm 2) is exactly as compact
//     as the plain binary number encoding of 1..N (Theorem 4.4).
//
// V-CDBS codes have variable length and need a per-code length field;
// F-CDBS codes are V-CDBS codes padded with trailing zeros to a fixed
// width (Section 4). The fixed-width length field can overflow under
// sustained skewed insertion (Section 6, Example 6.1), which is the
// one event that forces a re-encode; List tracks it.
package cdbs

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
)

// ErrNotEndingInOne reports a code that violates the CDBS invariant
// that all codes end with bit 1 (required by Theorem 3.1; see
// Example 3.3 for why).
var ErrNotEndingInOne = errors.New("cdbs: code does not end with bit 1")

// ErrNotOrdered reports Between(l, r) with l ⊀ r.
var ErrNotOrdered = errors.New("cdbs: left code is not lexicographically smaller than right code")

// CheckGap validates a gap once, for however many codes then go into
// it: a bound is empty (open) or ends with "1", and l ≺ r. (Between
// states the same three tests itself: a call here costs it 7 %.)
func CheckGap(l, r bitstr.BitString) error {
	if !l.IsEmpty() && !l.EndsWithOne() {
		return fmt.Errorf("%w: left %q", ErrNotEndingInOne, l)
	}
	if !r.IsEmpty() && !r.EndsWithOne() {
		return fmt.Errorf("%w: right %q", ErrNotEndingInOne, r)
	}
	if !l.IsEmpty() && !r.IsEmpty() && l.Compare(r) >= 0 {
		return fmt.Errorf("%w: %q vs %q", ErrNotOrdered, l, r)
	}
	return nil
}

// middle is Algorithm 1 (AssignMiddleBinaryString) on a checked gap,
// stated once, as a splice of one bound: the first keep bits of src,
// then the low k bits of v. Case (1) is l ⊕ "1" — with both bounds
// empty, "1", the middle number's code — and case (2) is r with its
// last "1" changed to "01". The case depends on the bounds' lengths
// alone, so a caller can size its storage first (BetweenLen).
func middle(l, r bitstr.BitString) (src bitstr.BitString, keep int, v uint64, k int) {
	if l.Len() >= r.Len() {
		return l, l.Len(), 0b1, 1
	}
	return r, r.Len() - 1, 0b01, 2
}

// BetweenLen returns the bits of the code between bounds of ll and rl.
func BetweenLen(ll, rl int) int { return max(ll, rl) + 1 }

// Between implements Algorithm 1. Given l ≺ r, both ending with "1",
// it returns m with l ≺ m ≺ r. Either or both bounds may be empty
// (bitstr.Empty), meaning an open end: the paper's Algorithm 2 calls
// Between this way for the sentinel positions 0 and N+1.
func Between(l, r bitstr.BitString) (bitstr.BitString, error) {
	if !l.IsEmpty() && !l.EndsWithOne() {
		return bitstr.Empty, fmt.Errorf("%w: left %q", ErrNotEndingInOne, l)
	}
	if !r.IsEmpty() && !r.EndsWithOne() {
		return bitstr.Empty, fmt.Errorf("%w: right %q", ErrNotEndingInOne, r)
	}
	if !l.IsEmpty() && !r.IsEmpty() && l.Compare(r) >= 0 {
		return bitstr.Empty, fmt.Errorf("%w: %q vs %q", ErrNotOrdered, l, r)
	}
	var m bitstr.BitString
	if src, keep, v, k := middle(l, r); k == 1 {
		m = src.AppendBit(1) // inlined here, as in fillGap
	} else {
		m = src.SpliceBits(keep, v, k)
	}
	assertBetween(l, r, m)
	return m, nil
}

// AppendBetween is Between written where the code will live: it
// appends the code of the checked gap (l, r) to dst in its stored form
// (bitstr.AppendTo's), allocating nothing with room in dst for
// StoredLen(BetweenLen(…)) bytes, and returns a view of it.
func AppendBetween(dst []byte, l, r bitstr.BitString) ([]byte, bitstr.BitString) {
	at := len(dst)
	src, keep, v, k := middle(l, r)
	dst = src.AppendSplicedTo(dst, keep, v, k)
	m := bitstr.ViewStored(dst[at:])
	assertBetween(l, r, m)
	return dst, m
}

// AppendTwoBetween is Corollary 3.3 in stored form: m1 then m2 with
// l ≺ m1 ≺ m2 ≺ r, the (start, end) pair of a containment label. m1
// ends with "1" (Lemma 3.2) and is longer than r, so m2 is m1 ⊕ "1".
func AppendTwoBetween(dst []byte, l, r bitstr.BitString) []byte {
	dst, m1 := AppendBetween(dst, l, r)
	dst, _ = AppendBetween(dst, m1, r)
	return dst
}

// TwoBetween implements Corollary 3.3: it returns m1, m2 with
// l ≺ m1 ≺ m2 ≺ r.
func TwoBetween(l, r bitstr.BitString) (m1, m2 bitstr.BitString, err error) {
	m1, err = Between(l, r)
	if err != nil {
		return bitstr.Empty, bitstr.Empty, err
	}
	// Lemma 3.2: m1 ends with "1", so it is a valid left bound.
	m2, err = Between(m1, r)
	if err != nil {
		return bitstr.Empty, bitstr.Empty, err
	}
	return m1, m2, nil
}

// NBetween returns n codes m1 ≺ m2 ≺ … ≺ mn strictly between l and r,
// assigned evenly the way Algorithm 2 assigns the initial encoding, so
// that bulk insertion of a run of siblings keeps codes short.
func NBetween(l, r bitstr.BitString, n int) ([]bitstr.BitString, error) {
	return EncodeBetween(l, r, n)
}

// EncodeBetween generalizes Algorithm 2 to an arbitrary gap: it emits
// n compact, ordered codes strictly between l and r in one pass. It
// assigns exactly the codes the gap-by-gap subdivision (RefNBetween)
// assigns — Algorithm 1's case split depends only on the lengths of
// the bounds, so procedure SubEncoding collapses to a closed
// positional recursion (fillGap) that needs no per-gap validation.
// The bounds are validated once up front instead of once per emitted
// code, which is what makes bulk insertion a single-pass kernel.
//
// Compactness: with both bounds empty, EncodeBetween(Empty, Empty, n)
// is Encode(n) bit for bit, so it inherits Theorem 4.4 — the total
// size equals the V-Binary encoding of 1..n. Against non-empty bounds
// each subdivision level extends the deeper bound by at most one bit
// (case 1 appends "1", case 2 rewrites the final "1" to "01"), and an
// even subdivision of n codes is at most FixedWidth(n)+1 levels deep,
// so no code exceeds max(len(l), len(r)) + FixedWidth(n) + 1 bits.
func EncodeBetween(l, r bitstr.BitString, n int) ([]bitstr.BitString, error) {
	if n < 0 {
		return nil, fmt.Errorf("cdbs: EncodeBetween count %d is negative", n)
	}
	if n == 0 {
		// Zero codes need no gap: bounds are not validated, matching the
		// historical NBetween contract the reference keeps.
		return nil, nil
	}
	if err := CheckGap(l, r); err != nil {
		return nil, err
	}
	out := make([]bitstr.BitString, n)
	fillGap(out, l, r)
	return out, nil
}

// fillGap assigns the codes of the open gap (l, r) into out. The
// middle slot gets the gap's Algorithm 1 code and the two halves
// recurse with that code as their shared bound. The slice midpoint
// len(out)/2 equals SubEncoding's round((lo+hi)/2) pivot at every
// depth — with gap size s = hi−lo−1, the pivot's offset into the gap
// is floor((lo+hi+1)/2) − (lo+1) = floor(s/2) — so the output matches
// RefNBetween exactly.
func fillGap(out []bitstr.BitString, l, r bitstr.BitString) {
	if len(out) == 0 {
		return
	}
	mid := len(out) / 2
	var m bitstr.BitString
	if src, keep, v, k := middle(l, r); k == 1 {
		m = src.AppendBit(1)
	} else {
		m = src.SpliceBits(keep, v, k)
	}
	assertBetween(l, r, m)
	out[mid] = m
	fillGap(out[:mid], l, m)
	fillGap(out[mid+1:], m, r)
}

// PutEncodeBetween is fillGap in stored form: it writes the len(offs)
// codes of the checked gap (l, r) into buf, the i-th in code order at
// offs[i], where the caller has left each the StoredLen its length
// (EncodeBetweenLens) takes. A gap's code is written before its
// halves', which read it back as their bound: nothing is boxed.
func PutEncodeBetween[T ~uint32](buf []byte, offs []T, l, r bitstr.BitString) {
	if len(offs) == 0 {
		return
	}
	mid := len(offs) / 2
	_, m := AppendBetween(buf[:offs[mid]], l, r)
	PutEncodeBetween(buf, offs[:mid], l, m)
	PutEncodeBetween(buf, offs[mid+1:], m, r)
}

// EncodeBetweenLens is the same recursion on lengths alone: it sets
// lens[i] to the bits of the i-th code EncodeBetween(l, r, len(lens))
// assigns between bounds of ll and rl bits.
func EncodeBetweenLens[T ~uint32](lens []T, ll, rl int) {
	if len(lens) == 0 {
		return
	}
	mid := len(lens) / 2
	lens[mid] = T(BetweenLen(ll, rl))
	EncodeBetweenLens(lens[:mid], ll, int(lens[mid]))
	EncodeBetweenLens(lens[mid+1:], int(lens[mid]), rl)
}

// Encode implements Algorithm 2: it returns the V-CDBS codes for the
// numbers 1..n, lexicographically ordered (Theorem 4.3), each ending
// with "1" (Lemma 4.2), with total size equal to the V-Binary encoding
// of 1..n (Section 4.2).
func Encode(n int) ([]bitstr.BitString, error) {
	if n < 0 {
		return nil, fmt.Errorf("cdbs: cannot encode %d numbers", n)
	}
	return NBetween(bitstr.Empty, bitstr.Empty, n)
}

// MustEncode is Encode for known-good n; it panics on error.
func MustEncode(n int) []bitstr.BitString {
	codes, err := Encode(n)
	if err != nil {
		panic(err)
	}
	return codes
}

// FixedWidth returns the F-CDBS code width for n codes: the length of
// the longest V-CDBS code, ceil(log2(n+1)).
//
// ceil(log2(n+1)) == bitlen(n) except when n+1 is a power of two,
// where bitlen(n) is already the answer.
func FixedWidth(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len64(uint64(n))
}

// EncodeFixed returns the F-CDBS codes for 1..n: the V-CDBS codes
// padded with trailing zeros to FixedWidth(n) bits.
func EncodeFixed(n int) ([]bitstr.BitString, int, error) {
	codes, err := Encode(n)
	if err != nil {
		return nil, 0, err
	}
	w := FixedWidth(n)
	for i, c := range codes {
		codes[i] = c.PadRight(w)
	}
	return codes, w, nil
}

// BetweenFixed inserts between two F-CDBS codes of the given width.
// The codes carry trailing-zero padding; the insertion works on the
// trimmed V-CDBS codes and re-pads. If the new code no longer fits in
// width bits it is returned unpadded along with ErrOverflow: the
// caller must widen (re-encode all codes).
func BetweenFixed(l, r bitstr.BitString, width int) (bitstr.BitString, error) {
	m, err := Between(l.TrimTrailingZeros(), r.TrimTrailingZeros())
	if err != nil {
		return bitstr.Empty, err
	}
	if m.Len() > width {
		return m, fmt.Errorf("%w: code %q needs %d bits, fixed width is %d", ErrOverflow, m, m.Len(), width)
	}
	return m.PadRight(width), nil
}

// ErrOverflow reports that an inserted code exceeded the capacity of
// the encoding's fixed-size field — the length field for V-CDBS or the
// code width for F-CDBS (Section 6, Example 6.1). Recovering requires
// re-encoding the existing codes.
var ErrOverflow = errors.New("cdbs: overflow")
