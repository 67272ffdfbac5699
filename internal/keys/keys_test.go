package keys

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitstr"
)

// allCodecs returns every codec the evaluation uses, in the order the
// paper's containment-scheme figures list them.
func allCodecs() []Codec {
	return []Codec{VBinary(), FBinary(), Float(), VCDBS(), FCDBS(), QED()}
}

// arenaEncode returns the keys c's arena assigns positions 1..n, and
// the arena; an error is Encode's.
func arenaEncode(c Codec, n int) (*Arena, []Ref, error) {
	a, err := NewArena(c)
	if err != nil {
		return nil, nil, err
	}
	refs, err := a.Encode(n)
	return &a, refs, err
}

// totals returns c's size accounting over its n initial keys, by the
// boxed reference and by the arena, which ships.
func totals(t *testing.T, c Codec, n int) (boxedBits, arenaBits int) {
	t.Helper()
	ks, err := box(c).Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	a, refs, err := arenaEncode(c, n)
	if err != nil {
		t.Fatal(err)
	}
	return box(c).TotalBits(ks), a.TotalBits(refs)
}

func TestAllCodecsEncodeOrdered(t *testing.T) {
	for _, c := range allCodecs() {
		for _, n := range []int{0, 1, 2, 18, 100} {
			ks, err := box(c).Encode(n)
			if err != nil {
				t.Fatalf("%s.Encode(%d): %v", c.Name(), n, err)
			}
			if len(ks) != n {
				t.Fatalf("%s.Encode(%d) returned %d keys", c.Name(), n, len(ks))
			}
			for i := 1; i < n; i++ {
				if box(c).Compare(ks[i-1], ks[i]) >= 0 {
					t.Errorf("%s.Encode(%d): keys %d,%d out of order", c.Name(), n, i-1, i)
				}
			}
		}
		if _, err := box(c).Encode(-1); err == nil {
			t.Errorf("%s.Encode(-1) succeeded", c.Name())
		}
		// The arena's keys, which ship, in the same order.
		for _, n := range []int{0, 1, 2, 18, 100} {
			a, refs, err := arenaEncode(c, n)
			if err != nil {
				t.Fatalf("%s arena Encode(%d): %v", c.Name(), n, err)
			}
			if len(refs) != n {
				t.Fatalf("%s arena Encode(%d) returned %d keys", c.Name(), n, len(refs))
			}
			for i := 1; i < n; i++ {
				if a.Compare(refs[i-1], refs[i]) >= 0 {
					t.Errorf("%s arena Encode(%d): keys %d,%d out of order", c.Name(), n, i-1, i)
				}
			}
		}
		if _, _, err := arenaEncode(c, -1); err == nil {
			t.Errorf("%s arena Encode(-1) succeeded", c.Name())
		}
	}
}

func TestDynamicCodecsInsertForever(t *testing.T) {
	for _, c := range allCodecs() {
		if !c.Dynamic() {
			continue
		}
		ks, err := box(c).Encode(4)
		if err != nil {
			t.Fatal(err)
		}
		gen := rand.New(rand.NewSource(2))
		for i := 0; i < 1500; i++ {
			p := gen.Intn(len(ks) + 1)
			var l, r Key
			if p > 0 {
				l = ks[p-1]
			}
			if p < len(ks) {
				r = ks[p]
			}
			m, err := box(c).Between(l, r)
			if err != nil {
				t.Fatalf("%s insert %d: %v", c.Name(), i, err)
			}
			if l != nil && box(c).Compare(l, m) >= 0 {
				t.Fatalf("%s insert %d below left", c.Name(), i)
			}
			if r != nil && box(c).Compare(m, r) >= 0 {
				t.Fatalf("%s insert %d above right", c.Name(), i)
			}
			ks = append(ks, nil)
			copy(ks[p+1:], ks[p:])
			ks[p] = m
		}
	}
}

func TestIntegerCodecNoRoom(t *testing.T) {
	c := VBinary()
	ks, _ := box(c).Encode(3)
	if _, err := box(c).Between(ks[0], ks[1]); !errors.Is(err, ErrNoRoom) {
		t.Errorf("consecutive integers: err = %v, want ErrNoRoom", err)
	}
	vb := func(v uint64) Key { return bitstr.FromUint(v) }
	val := func(k Key) uint64 {
		v, err := k.(bitstr.BitString).Uint()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// A gap of 2 has room.
	m, err := box(c).Between(vb(1), vb(3))
	if err != nil || val(m) != 2 {
		t.Errorf("Between(1,3) = %v, %v", m, err)
	}
	// Open ends.
	if m, err := box(c).Between(nil, vb(5)); err != nil || val(m) != 4 {
		t.Errorf("Between(nil,5) = %v, %v", m, err)
	}
	if _, err := box(c).Between(nil, vb(1)); !errors.Is(err, ErrNoRoom) {
		t.Errorf("Between(nil,1): %v, want ErrNoRoom", err)
	}
	if m, err := box(c).Between(vb(9), nil); err != nil || val(m) != 10 {
		t.Errorf("Between(9,nil) = %v, %v", m, err)
	}
	if _, err := box(c).Between(vb(5), vb(5)); err == nil {
		t.Error("equal bounds accepted")
	}
	if _, err := box(c).Between("bad", vb(5)); !errors.Is(err, errWrongKeyType) {
		t.Errorf("wrong type: %v", err)
	}
}

func TestIntegerCodecNumericOrder(t *testing.T) {
	// V-Binary keys must order numerically even though they are
	// stored as bit strings: "10" (2) < "111" (7) < "1000" (8).
	c := VBinary()
	ks, err := box(c).Encode(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ks); i++ {
		if box(c).Compare(ks[i-1], ks[i]) >= 0 {
			t.Fatalf("V-Binary order broken at %d", i)
		}
	}
	// F-Binary: appending past the width must widen and stay ordered.
	f := FBinary()
	fks, err := box(f).Encode(15) // width 4, max value 15
	if err != nil {
		t.Fatal(err)
	}
	m, err := box(f).Between(fks[14], nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.(bitstr.BitString).Len() != 5 {
		t.Errorf("appended key width = %d, want 5", m.(bitstr.BitString).Len())
	}
	if box(f).Compare(fks[14], m) >= 0 {
		t.Error("widened key not above old maximum")
	}
}

func TestFloatCodecPrecisionExhaustion(t *testing.T) {
	c := Float()
	l, r := Key(float64(1)), Key(float64(2))
	count := 0
	for {
		m, err := box(c).Between(l, r)
		if err != nil {
			if !errors.Is(err, ErrNoRoom) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		r = m
		count++
		if count > 200 {
			t.Fatal("float precision never exhausted")
		}
	}
	// IEEE-754 doubles give ~52 insertions between consecutive
	// integers; the paper's float representation managed only 18.
	if count < 40 || count > 64 {
		t.Errorf("float insertions at a fixed place = %d, want ~52", count)
	}
}

func TestFloatCodecOpenEnds(t *testing.T) {
	c := Float()
	if m, err := box(c).Between(nil, nil); err != nil || m.(float64) != 1 {
		t.Errorf("Between(nil,nil) = %v, %v", m, err)
	}
	if m, err := box(c).Between(nil, float64(3)); err != nil || m.(float64) != 2 {
		t.Errorf("Between(nil,3) = %v, %v", m, err)
	}
	if m, err := box(c).Between(float64(3), nil); err != nil || m.(float64) != 4 {
		t.Errorf("Between(3,nil) = %v, %v", m, err)
	}
	if _, err := box(c).Between(float64(5), float64(4)); err == nil {
		t.Error("reversed bounds accepted")
	}
	if _, err := box(c).Between("x", float64(1)); !errors.Is(err, errWrongKeyType) {
		t.Errorf("wrong type: %v", err)
	}
}

func TestTotalBitsAccounting(t *testing.T) {
	// n = 18, the Table 1 example.
	type want struct {
		name string
		bits int
	}
	wants := []want{
		{"V-Binary", 118},    // 64 code bits + 18×3 length fields
		{"F-Binary", 90 + 3}, // 18×5 + width field
		{"Float-point", 18 * 64},
		{"V-CDBS", 118},
		{"F-CDBS", 90 + 3},
	}
	for _, w := range wants {
		var codec Codec
		for _, c := range allCodecs() {
			if c.Name() == w.name {
				codec = c
			}
		}
		got, arena := totals(t, codec, 18)
		if got != w.bits {
			t.Errorf("%s.TotalBits(18) = %d, want %d", w.name, got, w.bits)
		}
		if arena != w.bits {
			t.Errorf("%s arena TotalBits(18) = %d, want %d", w.name, arena, w.bits)
		}
	}
	// QED: larger than V-CDBS but no length fields.
	got, arena := totals(t, QED(), 18)
	if got <= 64 {
		t.Errorf("QED.TotalBits(18) = %d, implausibly small", got)
	}
	if got > 200 {
		t.Errorf("QED.TotalBits(18) = %d, implausibly large", got)
	}
	if arena != got {
		t.Errorf("QED arena TotalBits(18) = %d, boxed %d", arena, got)
	}
	for _, c := range allCodecs() {
		if n := box(c).TotalBits(nil); n != 0 {
			t.Errorf("%s.TotalBits(nil) = %d", c.Name(), n)
		}
		if a, err := NewArena(c); err != nil {
			t.Fatal(err)
		} else if n := a.TotalBits(nil); n != 0 {
			t.Errorf("%s arena TotalBits(nil) = %d", c.Name(), n)
		}
	}
}

func TestCDBSKeySizeEqualsBinary(t *testing.T) {
	// Figure 5's key claim: V-CDBS == V-Binary and F-CDBS == F-Binary
	// total sizes, at any n; by the boxed reference and by the arena.
	for _, n := range []int{5, 18, 100, 1000} {
		vb, avb := totals(t, VBinary(), n)
		vc, avc := totals(t, VCDBS(), n)
		if vb != vc {
			t.Errorf("n=%d: V-Binary %d != V-CDBS %d", n, vb, vc)
		}
		if avb != avc || avc != vc {
			t.Errorf("n=%d: arena V-Binary %d, V-CDBS %d; boxed %d", n, avb, avc, vc)
		}
		fb, afb := totals(t, FBinary(), n)
		fc, afc := totals(t, FCDBS(), n)
		if fb != fc {
			t.Errorf("n=%d: F-Binary %d != F-CDBS %d", n, fb, fc)
		}
		if afb != afc || afc != fc {
			t.Errorf("n=%d: arena F-Binary %d, F-CDBS %d; boxed %d", n, afb, afc, fc)
		}
	}
}

func TestCodecNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range allCodecs() {
		if seen[c.Name()] {
			t.Errorf("duplicate codec name %q", c.Name())
		}
		seen[c.Name()] = true
	}
}
