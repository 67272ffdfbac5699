package cdbs

import "math"

// This file implements the size analysis of Section 4.2. All sizes are
// in bits and logs are base 2, as in the paper. The paper omits
// ceiling functions "for simplicity"; the Formula* functions follow
// the paper's algebra, while the Measured*/Exact* functions compute
// the true bit counts (with ceilings), which is what Table 1 reports.

// bitLen returns the number of bits in the plain binary representation
// of v (bitLen(0) == 1, matching V-Binary's "0").
func bitLen(v int) int {
	if v <= 0 {
		return 1
	}
	n := 0
	for ; v > 0; v >>= 1 {
		n++
	}
	return n
}

// ExactVBinaryCodeBits returns the exact total code size of the
// V-Binary encoding of 1..n: sum over i of bitlen(i). Table 1 reports
// 64 bits for n = 18. By Theorem 4.4 the V-CDBS code total is
// identical; TestVCDBSMatchesVBinaryTotal checks that against Encode.
func ExactVBinaryCodeBits(n int) int {
	total := 0
	for i := 1; i <= n; i++ {
		total += bitLen(i)
	}
	return total
}

// ExactLengthFieldBits returns the storage for the per-code length
// fields of a variable-length encoding of 1..n: n copies of a
// fixed-width field wide enough for the maximum code length
// (Example 4.2: 3 bits each for n = 18, total 54).
func ExactLengthFieldBits(n int) int {
	if n == 0 {
		return 0
	}
	return n * LengthFieldWidth(n)
}

// LengthFieldWidth returns the width in bits of the length field
// needed by the V encodings of 1..n: ceil(log2(maxCodeLen+1)).
func LengthFieldWidth(n int) int {
	if n == 0 {
		return 0
	}
	maxLen := FixedWidth(n)
	return bitLen(maxLen)
}

// ExactVTotalBits returns code bits plus length-field bits for
// V-Binary (and equally V-CDBS) of 1..n. Example 4.2: 118 for n = 18.
func ExactVTotalBits(n int) int {
	return ExactVBinaryCodeBits(n) + ExactLengthFieldBits(n)
}

// ExactFTotalBits returns the exact total for the fixed-length
// encodings (F-Binary and F-CDBS) of 1..n: n codes of FixedWidth(n)
// bits, plus one stored copy of the width itself. Table 1 reports
// 90 code bits for n = 18.
func ExactFTotalBits(n int) int {
	if n == 0 {
		return 0
	}
	return n*FixedWidth(n) + bitLen(FixedWidth(n))
}

// ExactFCodeBits returns just the code portion of the fixed-length
// total (the 90 in Table 1).
func ExactFCodeBits(n int) int { return n * FixedWidth(n) }

// FormulaVCode evaluates formula (2): N·log(N+1) − N + log(N+1),
// the paper's closed form for the V-Binary/V-CDBS code total without
// ceilings.
func FormulaVCode(n int) float64 {
	if n == 0 {
		return 0
	}
	N := float64(n)
	l := math.Log2(N + 1)
	return N*l - N + l
}

// FormulaVTotal evaluates formula (3):
// N·log(N+1) + N·log(log(N)) − N + log(N+1).
func FormulaVTotal(n int) float64 {
	if n < 2 {
		return FormulaVCode(n)
	}
	N := float64(n)
	return FormulaVCode(n) + N*math.Log2(math.Log2(N))
}

// FormulaFTotal evaluates formula (5): N·log(N) + log(log(N)).
func FormulaFTotal(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	N := float64(n)
	return N*math.Log2(N) + math.Log2(math.Log2(N))
}
