package bitstr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/invariants"
)

func TestParseAndString(t *testing.T) {
	cases := []string{"", "0", "1", "01", "0011", "00111", "10010", "1111111110000000111"}
	for _, c := range cases {
		bs, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if got := bs.String(); got != c {
			t.Errorf("Parse(%q).String() = %q", c, got)
		}
		if bs.Len() != len(c) {
			t.Errorf("Parse(%q).Len() = %d, want %d", c, bs.Len(), len(c))
		}
	}
}

func TestParseRejectsNonBinary(t *testing.T) {
	for _, c := range []string{"2", "0a1", "01 ", "-1"} {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestCompareExamples(t *testing.T) {
	// Example 3.1 of the paper.
	cases := []struct {
		a, b string
		want int
	}{
		{"0011", "01", -1}, // 2nd bit differs
		{"01", "0101", -1}, // prefix ≺ extension
		{"01", "01", 0},
		{"1", "0111", 1},
		{"", "0", -1}, // empty is a prefix of everything
		{"", "", 0},
		{"0", "00", -1}, // Example 3.3
		{"101", "1001", 1},
		{"00111", "01", -1},
		{"01", "01001", -1},
		{"01001", "0101", -1},
	}
	for _, c := range cases {
		got := MustParse(c.a).Compare(MustParse(c.b))
		if got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if back := MustParse(c.b).Compare(MustParse(c.a)); back != -c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d (antisymmetry)", c.b, c.a, back, -c.want)
		}
	}
}

// refCompare is an independent reference implementation of
// Definition 3.1, working on the textual form.
func refCompare(a, b string) int {
	switch {
	case a == b:
		return 0
	case strings.HasPrefix(b, a):
		return -1
	case strings.HasPrefix(a, b):
		return 1
	case a < b:
		return -1
	}
	return 1
}

func TestCompareMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Values: nil}
	gen := rand.New(rand.NewSource(1))
	randBits := func() string {
		n := gen.Intn(40)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte('0' + byte(gen.Intn(2)))
		}
		return sb.String()
	}
	f := func() bool {
		a, b := randBits(), randBits()
		return MustParse(a).Compare(MustParse(b)) == refCompare(a, b)
	}
	wrapped := func(int) bool { return f() }
	if err := quick.Check(wrapped, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBitAndLastBit(t *testing.T) {
	s := MustParse("10110")
	want := []byte{1, 0, 1, 1, 0}
	for i, w := range want {
		if got := s.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
	if b, ok := s.LastBit(); !ok || b != 0 {
		t.Errorf("LastBit() = %d,%v, want 0,true", b, ok)
	}
	if _, ok := Empty.LastBit(); ok {
		t.Error("Empty.LastBit() ok = true")
	}
	if Empty.EndsWithOne() {
		t.Error("Empty.EndsWithOne() = true")
	}
	if !MustParse("01").EndsWithOne() {
		t.Error(`"01".EndsWithOne() = false`)
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bit(5) on 3-bit string did not panic")
		}
	}()
	MustParse("010").Bit(5)
}

func TestAppendConcatDrop(t *testing.T) {
	s := MustParse("01")
	if got := s.AppendBit(1).String(); got != "011" {
		t.Errorf("AppendBit = %q", got)
	}
	if got := s.Concat(MustParse("101")).String(); got != "01101" {
		t.Errorf("Concat = %q", got)
	}
	if got := MustParse("0110").DropLastBit().String(); got != "011" {
		t.Errorf("DropLastBit = %q", got)
	}
	if got := Empty.Concat(s).String(); got != "01" {
		t.Errorf("Empty.Concat = %q", got)
	}
	if got := s.Concat(Empty).String(); got != "01" {
		t.Errorf("Concat(Empty) = %q", got)
	}
}

func TestImmutability(t *testing.T) {
	s := MustParse("0101")
	_ = s.AppendBit(1)
	_ = s.ReplaceLastBit(0)
	_ = s.PadRight(16)
	if got := s.String(); got != "0101" {
		t.Errorf("source mutated to %q", got)
	}
	// Appending to two strings derived from the same parent must not
	// interfere.
	a := s.AppendBit(0)
	b := s.AppendBit(1)
	if a.String() != "01010" || b.String() != "01011" {
		t.Errorf("derived strings interfere: %q %q", a, b)
	}
}

func TestPrefixAndHasPrefix(t *testing.T) {
	s := MustParse("110101101")
	if got := s.Prefix(4).String(); got != "1101" {
		t.Errorf("Prefix(4) = %q", got)
	}
	if got := s.Prefix(0); !got.IsEmpty() {
		t.Errorf("Prefix(0) = %q", got)
	}
	if !s.HasPrefix(MustParse("1101")) {
		t.Error("HasPrefix(1101) = false")
	}
	if s.HasPrefix(MustParse("111")) {
		t.Error("HasPrefix(111) = true")
	}
	if !s.HasPrefix(Empty) {
		t.Error("HasPrefix(Empty) = false")
	}
	if !s.HasPrefix(s) {
		t.Error("HasPrefix(self) = false")
	}
}

func TestPadAndTrim(t *testing.T) {
	v := MustParse("001")
	f := v.PadRight(5)
	if f.String() != "00100" {
		t.Errorf("PadRight = %q", f)
	}
	if got := f.TrimTrailingZeros(); !got.Equal(v) {
		t.Errorf("TrimTrailingZeros = %q, want %q", got, v)
	}
	if got := MustParse("0000").TrimTrailingZeros(); !got.IsEmpty() {
		t.Errorf("TrimTrailingZeros(0000) = %q", got)
	}
	if got := v.PadRight(3); !got.Equal(v) {
		t.Errorf("PadRight(no-op) = %q", got)
	}
}

func TestReplaceLastBit(t *testing.T) {
	if got := MustParse("0101").ReplaceLastBit(0).String(); got != "0100" {
		t.Errorf("ReplaceLastBit = %q", got)
	}
}

func TestFromUint(t *testing.T) {
	cases := []struct {
		v    uint64
		want string
	}{
		{0, "0"}, {1, "1"}, {2, "10"}, {3, "11"}, {4, "100"},
		{10, "1010"}, {18, "10010"}, {255, "11111111"},
	}
	for _, c := range cases {
		if got := FromUint(c.v).String(); got != c.want {
			t.Errorf("FromUint(%d) = %q, want %q", c.v, got, c.want)
		}
		back, err := FromUint(c.v).Uint()
		if err != nil || back != c.v {
			t.Errorf("Uint round trip %d -> %d (%v)", c.v, back, err)
		}
	}
}

func TestFromUintFixed(t *testing.T) {
	if got := FromUintFixed(3, 5).String(); got != "00011" {
		t.Errorf("FromUintFixed(3,5) = %q", got)
	}
	if got := FromUintFixed(18, 5).String(); got != "10010" {
		t.Errorf("FromUintFixed(18,5) = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("FromUintFixed(32,5) did not panic")
		}
	}()
	FromUintFixed(32, 5)
}

func TestFromBytes(t *testing.T) {
	bs, err := FromBytes([]byte{0b10110000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bs.String() != "1011" {
		t.Errorf("FromBytes = %q", bs)
	}
	// Spare bits in the input must be masked off.
	bs2, err := FromBytes([]byte{0b10111111}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Equal(bs2) {
		t.Errorf("spare bits not cleared: %q vs %q", bs, bs2)
	}
	if _, err := FromBytes([]byte{0}, 9); err == nil {
		t.Error("FromBytes with short data succeeded")
	}
	if _, err := FromBytes(nil, -1); err == nil {
		t.Error("FromBytes with negative length succeeded")
	}
}

func TestBytesIsACopy(t *testing.T) {
	s := MustParse("1111")
	b := s.Bytes()
	b[0] = 0
	if s.String() != "1111" {
		t.Error("Bytes aliases internal storage")
	}
}

func TestUintTooLong(t *testing.T) {
	long := MustParse(strings.Repeat("1", 65))
	if _, err := long.Uint(); err == nil {
		t.Error("Uint on 65-bit string succeeded")
	}
}

// Property: Compare defines a total order consistent with Concat —
// s ≺ s⊕t for non-empty t.
func TestPrefixAlwaysLessQuick(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	randBS := func(maxLen int) BitString {
		n := gen.Intn(maxLen)
		b := builderWithCap(n)
		for i := 0; i < n; i++ {
			b.appendBit(byte(gen.Intn(2)))
		}
		return b.bitString()
	}
	f := func(int) bool {
		s := randBS(30)
		t := randBS(29).AppendBit(1) // non-empty
		return s.Less(s.Concat(t))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// Property: transitivity on random triples.
func TestCompareTransitiveQuick(t *testing.T) {
	gen := rand.New(rand.NewSource(11))
	randBS := func() BitString {
		n := gen.Intn(24)
		b := builderWithCap(n)
		for i := 0; i < n; i++ {
			b.appendBit(byte(gen.Intn(2)))
		}
		return b.bitString()
	}
	f := func(int) bool {
		a, b, c := randBS(), randBS(), randBS()
		// Sort the three and check pairwise consistency.
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			return false
		}
		if a.Compare(b) >= 0 && b.Compare(c) >= 0 && a.Compare(c) < 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendBit(b *testing.B) {
	x := MustParse("1011010010110101")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.AppendBit(1)
	}
}

// TestViewAliasesAndIsChecked pins View's two halves: it shares the
// caller's bytes instead of copying them, and the invariants build —
// and only it — refuses bytes that are not a well-formed bit string,
// which a copying constructor would have repaired.
func TestViewAliasesAndIsChecked(t *testing.T) {
	arena := []byte{0b1010_0000, 0xFF}
	v := View(arena[:1], 3)
	if v.String() != "101" || v.AppendBit(1).String() != "1011" || arena[1] != 0xFF {
		t.Fatalf("View reads %q and leaves %08b behind it", v, arena[1])
	}
	if n := testing.AllocsPerRun(100, func() { sink = View(arena[:1], 3).Compare(v) }); n != 0 {
		t.Errorf("View allocates %.0f times", n)
	}
	for name, bad := range map[string]func(){
		"spare bits set": func() { View([]byte{0b1011_0000}, 3) },
		"too many bytes": func() { View(arena, 3) },
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			bad()
			return false
		}()
		if panicked != invariants.Enabled {
			t.Errorf("%s: panicked = %v with invariants enabled = %v", name, panicked, invariants.Enabled)
		}
	}
}
