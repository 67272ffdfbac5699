package cdbs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"text/tabwriter"

	"repro/internal/bitstr"
	"repro/internal/qed"
)

// table1VCDBS is the V-CDBS column of Table 1 of the paper.
var table1VCDBS = []string{
	"00001", "0001", "001", "0011", "01", "01001", "0101", "011", "0111",
	"1", "10001", "1001", "101", "1011", "11", "1101", "111", "1111",
}

// table1FCDBS is the F-CDBS column of Table 1.
var table1FCDBS = []string{
	"00001", "00010", "00100", "00110", "01000", "01001", "01010", "01100",
	"01110", "10000", "10001", "10010", "10100", "10110", "11000", "11010",
	"11100", "11110",
}

func TestEncodeMatchesTable1(t *testing.T) {
	codes := MustEncode(18)
	if len(codes) != 18 {
		t.Fatalf("Encode(18) returned %d codes", len(codes))
	}
	for i, want := range table1VCDBS {
		if got := codes[i].String(); got != want {
			t.Errorf("V-CDBS code for %d = %q, want %q", i+1, got, want)
		}
	}
}

func TestEncodeFixedMatchesTable1(t *testing.T) {
	codes, w, err := EncodeFixed(18)
	if err != nil {
		t.Fatal(err)
	}
	if w != 5 {
		t.Fatalf("FixedWidth(18) = %d, want 5", w)
	}
	for i, want := range table1FCDBS {
		if got := codes[i].String(); got != want {
			t.Errorf("F-CDBS code for %d = %q, want %q", i+1, got, want)
		}
	}
}

func TestTable1Totals(t *testing.T) {
	// Table 1: V totals 64 bits, F totals 90 bits for n = 18.
	if got := ExactVBinaryCodeBits(18); got != 64 {
		t.Errorf("V-Binary total = %d, want 64", got)
	}
	var vcdbs int
	for _, c := range MustEncode(18) {
		vcdbs += c.Len()
	}
	if vcdbs != 64 {
		t.Errorf("V-CDBS total = %d, want 64", vcdbs)
	}
	if got := ExactFCodeBits(18); got != 90 {
		t.Errorf("F code total = %d, want 90", got)
	}
	// Example 4.2: with 3-bit length fields the V total is 118.
	if got := ExactVTotalBits(18); got != 118 {
		t.Errorf("V total with length fields = %d, want 118", got)
	}
}

func TestBetweenExamples(t *testing.T) {
	// Example 3.2 of the paper.
	cases := []struct{ l, r, want string }{
		{"0011", "01", "00111"},
		{"01", "0101", "01001"},
		{"", "", "1"},      // both empty: case (1)
		{"", "1", "01"},    // Step 4 of Section 4
		{"1", "", "11"},    // Step 5 of Section 4
		{"1", "11", "101"}, // equal length: case (1) appends
	}
	for _, c := range cases {
		m, err := Between(bitstr.MustParse(c.l), bitstr.MustParse(c.r))
		if err != nil {
			t.Fatalf("Between(%q,%q): %v", c.l, c.r, err)
		}
		if m.String() != c.want {
			t.Errorf("Between(%q,%q) = %q, want %q", c.l, c.r, m, c.want)
		}
	}
}

func TestBetweenValidation(t *testing.T) {
	if _, err := Between(bitstr.MustParse("10"), bitstr.MustParse("11")); err == nil {
		t.Error("left not ending in 1 accepted")
	}
	if _, err := Between(bitstr.MustParse("1"), bitstr.MustParse("110")); err == nil {
		t.Error("right not ending in 1 accepted")
	}
	if _, err := Between(bitstr.MustParse("11"), bitstr.MustParse("01")); err == nil {
		t.Error("unordered input accepted")
	}
	if _, err := Between(bitstr.MustParse("01"), bitstr.MustParse("01")); err == nil {
		t.Error("equal input accepted")
	}
}

// Theorem 3.1 as a property: for random ordered pairs of codes ending
// in 1, Between yields a strictly intermediate code ending in 1
// (Lemma 3.2).
func TestBetweenPropertyQuick(t *testing.T) {
	gen := rand.New(rand.NewSource(42))
	randCode := func() bitstr.BitString {
		n := gen.Intn(20)
		s := bitstr.Empty
		for i := 0; i < n; i++ {
			s = s.AppendBit(byte(gen.Intn(2)))
		}
		return s.AppendBit(1)
	}
	f := func(int) bool {
		a, b := randCode(), randCode()
		switch a.Compare(b) {
		case 0:
			return true // skip equal draws
		case 1:
			a, b = b, a
		}
		m, err := Between(a, b)
		if err != nil {
			return false
		}
		return a.Less(m) && m.Less(b) && m.EndsWithOne()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoBetween(t *testing.T) {
	// Section 5.2.1: inserting a (start,end) pair between V-CDBS codes
	// for 4 and 5, i.e. "0011" and "01".
	l, r := bitstr.MustParse("0011"), bitstr.MustParse("01")
	m1, m2, err := TwoBetween(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if !(l.Less(m1) && m1.Less(m2) && m2.Less(r)) {
		t.Errorf("order violated: %q %q %q %q", l, m1, m2, r)
	}
	// The paper's example: the two strings can be "00111" and "001111".
	if m1.String() != "00111" || m2.String() != "001111" {
		t.Errorf("TwoBetween = %q,%q, want 00111,001111", m1, m2)
	}
}

func TestNBetween(t *testing.T) {
	// Example 5.1: encoding 4 numbers yields "001","01","1","11".
	codes, err := NBetween(bitstr.Empty, bitstr.Empty, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"001", "01", "1", "11"}
	for i, w := range want {
		if codes[i].String() != w {
			t.Errorf("code %d = %q, want %q", i, codes[i], w)
		}
	}
	// Two siblings: self labels "01" and "1" (Example 5.1).
	two, err := NBetween(bitstr.Empty, bitstr.Empty, 2)
	if err != nil {
		t.Fatal(err)
	}
	if two[0].String() != "01" || two[1].String() != "1" {
		t.Errorf("NBetween 2 = %q,%q, want 01,1", two[0], two[1])
	}
	// Between existing bounds the results stay strictly inside.
	l, r := bitstr.MustParse("01"), bitstr.MustParse("11")
	mid, err := NBetween(l, r, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := l
	for i, m := range mid {
		if !prev.Less(m) {
			t.Errorf("NBetween[%d] = %q not above %q", i, m, prev)
		}
		prev = m
	}
	if !prev.Less(r) {
		t.Errorf("NBetween last %q not below right bound", prev)
	}
	if _, err := NBetween(l, r, -1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestEncodeOrderedAndEndInOne(t *testing.T) {
	// Theorem 4.3 + Lemma 4.2 across a range of sizes, including the
	// power-of-two boundaries.
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 100, 1000, 4097} {
		codes := MustEncode(n)
		if len(codes) != n {
			t.Fatalf("Encode(%d) returned %d codes", n, len(codes))
		}
		for i, c := range codes {
			if !c.EndsWithOne() {
				t.Fatalf("Encode(%d)[%d] = %q does not end in 1", n, i, c)
			}
			if i > 0 && codes[i-1].Compare(c) >= 0 {
				t.Fatalf("Encode(%d) out of order at %d: %q !≺ %q", n, i, codes[i-1], c)
			}
		}
	}
}

func TestVCDBSMatchesVBinaryTotal(t *testing.T) {
	// Theorem 4.4: same total code size as V-Binary, for every n.
	for _, n := range []int{1, 2, 3, 10, 18, 31, 32, 33, 100, 255, 256, 1000} {
		var total int
		for _, c := range MustEncode(n) {
			total += c.Len()
		}
		if want := ExactVBinaryCodeBits(n); total != want {
			t.Errorf("n=%d: V-CDBS total %d != V-Binary total %d", n, total, want)
		}
	}
}

func TestFixedWidth(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {15, 4}, {16, 5}, {18, 5},
	}
	for _, c := range cases {
		if got := FixedWidth(c.n); got != c.want {
			t.Errorf("FixedWidth(%d) = %d, want %d", c.n, got, c.want)
		}
		// FixedWidth must equal the longest V-CDBS code length.
		maxLen := 0
		for _, code := range MustEncode(c.n) {
			if code.Len() > maxLen {
				maxLen = code.Len()
			}
		}
		if c.n > 0 && maxLen != c.want {
			t.Errorf("n=%d: max code len %d != FixedWidth %d", c.n, maxLen, c.want)
		}
	}
}

func TestBetweenFixed(t *testing.T) {
	codes, w, err := EncodeFixed(18)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BetweenFixed(codes[3], codes[4], w) // between 4 ("00110") and 5 ("01000")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != w {
		t.Errorf("BetweenFixed width %d, want %d", m.Len(), w)
	}
	if !(codes[3].Less(m) && m.Less(codes[4])) {
		t.Errorf("BetweenFixed order violated: %q", m)
	}
	// Repeated insertion at a fixed place must eventually overflow
	// the fixed width (the first insertion above already succeeded).
	r := m
	for i := 0; ; i++ {
		mm, err := BetweenFixed(codes[3], r, w)
		if err != nil {
			break
		}
		r = mm
		if i > 100 {
			t.Fatal("fixed width never overflowed")
		}
	}
}

func TestPosition(t *testing.T) {
	for _, n := range []int{1, 2, 5, 18, 100, 1023} {
		codes := MustEncode(n)
		for i, c := range codes {
			pos, err := Position(c, n)
			if err != nil {
				t.Fatalf("Position(%q, %d): %v", c, n, err)
			}
			if pos != i+1 {
				t.Errorf("Position(%q, %d) = %d, want %d", c, n, pos, i+1)
			}
		}
	}
	// A dynamically inserted code has no initial position.
	codes := MustEncode(18)
	m, err := Between(codes[0], codes[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Position(m, 18); err == nil {
		t.Error("Position accepted a non-initial code")
	}
	if _, err := Position(bitstr.MustParse("1"), 0); err == nil {
		t.Error("Position with n=0 succeeded")
	}
}

func TestPositionFixed(t *testing.T) {
	codes, _, err := EncodeFixed(18)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range codes {
		pos, err := PositionFixed(c, 18)
		if err != nil {
			t.Fatal(err)
		}
		if pos != i+1 {
			t.Errorf("PositionFixed code %d = %d", i+1, pos)
		}
	}
}

func TestFormulasTrackExactTotals(t *testing.T) {
	// The paper's formulas drop ceilings, so they must track the exact
	// totals within the slack the ceilings introduce (< N bits for the
	// code part, < 2N overall).
	for _, n := range []int{16, 100, 1000, 10000} {
		exact := float64(ExactVBinaryCodeBits(n))
		if f := FormulaVCode(n); math.Abs(f-exact) > float64(n) {
			t.Errorf("n=%d: formula(2) %.0f vs exact %.0f", n, f, exact)
		}
		exactF := float64(ExactFCodeBits(n))
		if f := FormulaFTotal(n); math.Abs(f-exactF) > float64(n)+8 {
			t.Errorf("n=%d: formula(5) %.0f vs exact %.0f", n, f, exactF)
		}
	}
}

func TestEncodeNegative(t *testing.T) {
	if _, err := Encode(-1); err == nil {
		t.Error("Encode(-1) succeeded")
	}
}

// TestBetweenAllocs pins Between at one allocation per produced code —
// the insertion hot path — for both branches of Algorithm 1: case 1
// appends to the left bound, case 2 splices into the right bound.
func TestBetweenAllocs(t *testing.T) {
	check := func(name, left, right string) {
		t.Helper()
		l, r := bitstr.Empty, bitstr.Empty
		if left != "" {
			l = bitstr.MustParse(left)
		}
		if right != "" {
			r = bitstr.MustParse(right)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := Between(l, r); err != nil {
				t.Fatal(err)
			}
		})
		if got > 1 {
			t.Errorf("Between %s: %.1f allocs per run, want <= 1", name, got)
		}
	}
	check("case1", "101", "11")             // l.Len() >= r.Len(): m = l+"1"
	check("case1-open", "10110101", "")     // appending at the right end
	check("case2", "1", "1011010010110101") // l.Len() < r.Len(): splice
	check("case2-open", "", "1011010010110101")
}

// TestSizesAgainstQED is Section 4.2's table: the exact V-CDBS code
// total (Theorem 4.4: V-Binary's), formulas (2), (3) and (5) against
// the exact totals they drop ceilings from, and QED's total with its
// separators, larger at every n (the size premium of Section 6).
func TestSizesAgainstQED(t *testing.T) {
	rows := []string{"N\tV code\tformula (2)\tV total\tformula (3)\tF total\tformula (5)\tQED total"}
	for _, n := range []int{18, 100, 1000, 100000} {
		measured := 0
		for _, c := range MustEncode(n) {
			measured += c.Len()
		}
		if want := ExactVBinaryCodeBits(n); measured != want {
			t.Errorf("n=%d: V-CDBS total %d != V-Binary total %d", n, measured, want)
		}
		qcodes, err := qed.Encode(n)
		if err != nil {
			t.Fatal(err)
		}
		q := 0
		for _, c := range qcodes {
			q += c.BitsWithSeparator()
		}
		if q <= measured {
			t.Errorf("n=%d: QED %d not larger than V-CDBS %d", n, q, measured)
		}
		if f, exact := FormulaVTotal(n), ExactVTotalBits(n); math.Abs(float64(exact)-f) > 2*float64(n)+16 {
			t.Errorf("n=%d: formula (3) %.0f too far from exact %d", n, f, exact)
		}
		rows = append(rows, fmt.Sprintf("%d\t%d\t%.0f\t%d\t%.0f\t%d\t%.0f\t%d", n, measured, FormulaVCode(n),
			ExactVTotalBits(n), FormulaVTotal(n), ExactFTotalBits(n), FormulaFTotal(n), q))
	}
	logTable(t, "Section 4.2: total bits", rows)
}

// logTable logs tab-separated rows as an aligned table.
func logTable(t *testing.T, title string, rows []string) {
	t.Helper()
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	_ = w.Flush()
	t.Logf("%s\n\n%s", title, b.String())
}
