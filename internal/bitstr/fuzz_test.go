package bitstr

import (
	"bytes"
	"cmp"
	"testing"
)

// checkWellFormed asserts the storage invariant every public
// constructor must maintain: exactly ceil(n/8) bytes, spare bits zero.
// The word-parallel kernels are only sound on well-formed values.
func checkWellFormed(t *testing.T, label string, s BitString) {
	t.Helper()
	if len(s.data) != bytesFor(s.n) {
		t.Fatalf("%s: %d storage bytes for %d bits", label, len(s.data), s.n)
	}
	if s.n > 0 && spareBits(s.data, s.n) != 0 {
		t.Fatalf("%s: dirty spare bits in %08b (n=%d)", label, s.data[len(s.data)-1], s.n)
	}
}

// fromFuzz clamps (data, n) into a valid BitString.
func fromFuzz(t *testing.T, data []byte, n uint16) BitString {
	t.Helper()
	bits := int(n)
	if max := 8 * len(data); bits > max {
		bits = max
	}
	s, err := FromBytes(data[:bytesFor(bits)], bits)
	if err != nil {
		t.Fatalf("FromBytes(%d bits): %v", bits, err)
	}
	return s
}

// FuzzBitstrKernels differentially tests the word-parallel kernels
// against the retained bit-at-a-time references in reference_test.go.
func FuzzBitstrKernels(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0), uint16(0))
	f.Add([]byte{0xB5}, []byte{0xB5}, uint16(8), uint16(7))
	f.Add([]byte{0xFF, 0x00, 0x01}, []byte{0xFF, 0x00}, uint16(17), uint16(16))
	f.Add(bytes.Repeat([]byte{0xA7}, 16), bytes.Repeat([]byte{0xA7}, 16), uint16(128), uint16(121))
	f.Add(bytes.Repeat([]byte{0x00}, 9), []byte{0x80}, uint16(72), uint16(1))
	f.Fuzz(func(t *testing.T, a, b []byte, na, nb uint16) {
		s := fromFuzz(t, a, na)
		u := fromFuzz(t, b, nb)
		checkWellFormed(t, "s", s)
		checkWellFormed(t, "u", u)

		if got, want := s.Compare(u), RefCompare(s, u); got != want {
			t.Errorf("Compare(%q, %q) = %d, want %d", s, u, got, want)
		}
		if got, want := s.Equal(u), RefEqual(s, u); got != want {
			t.Errorf("Equal(%q, %q) = %v, want %v", s, u, got, want)
		}
		if got, want := s.HasPrefix(u), RefHasPrefix(s, u); got != want {
			t.Errorf("HasPrefix(%q, %q) = %v, want %v", s, u, got, want)
		}
		if got, want := u.HasPrefix(s), RefHasPrefix(u, s); got != want {
			t.Errorf("HasPrefix(%q, %q) = %v, want %v", u, s, got, want)
		}

		cat := s.Concat(u)
		checkWellFormed(t, "Concat", cat)
		if ref := RefConcat(s, u); !cat.Equal(ref) {
			t.Errorf("Concat(%q, %q) = %q, want %q", s, u, cat, ref)
		}

		trimmed := s.TrimTrailingZeros()
		checkWellFormed(t, "TrimTrailingZeros", trimmed)
		if ref := RefTrimTrailingZeros(s); !trimmed.Equal(ref) {
			t.Errorf("TrimTrailingZeros(%q) = %q, want %q", s, trimmed, ref)
		}

		if s.Len() <= 64 {
			got, gotErr := s.Uint()
			want, wantErr := RefUint(s)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Errorf("Uint(%q) = %d, %v, want %d, %v", s, got, gotErr, want, wantErr)
			}
		}

		if got, want := s.String(), RefString(s); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}

		// Prefix at every length derived from the second input: shared
		// or copied, the result must be well-formed and re-compare
		// correctly against the parent.
		k := int(nb) % (s.Len() + 1)
		p := s.Prefix(k)
		checkWellFormed(t, "Prefix", p)
		if !RefHasPrefix(s, p) {
			t.Errorf("Prefix(%d) of %q = %q is not a prefix", k, s, p)
		}
		if p.Len() != k {
			t.Errorf("Prefix(%d).Len() = %d", k, p.Len())
		}
	})
}

// FuzzBitstrCodecs differentially tests the numeric and text codecs
// plus the binary marshaling round trip.
func FuzzBitstrCodecs(f *testing.F) {
	f.Add(uint64(0), uint8(0), []byte{})
	f.Add(uint64(18), uint8(5), []byte{0x90})
	f.Add(^uint64(0), uint8(64), bytes.Repeat([]byte{0xFF}, 8))
	f.Add(uint64(1)<<63, uint8(64), []byte{0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, v uint64, width uint8, data []byte) {
		fu := FromUint(v)
		checkWellFormed(t, "FromUint", fu)
		if ref := RefFromUint(v); !fu.Equal(ref) {
			t.Errorf("FromUint(%d) = %q, want %q", v, fu, ref)
		}
		back, err := fu.Uint()
		if err != nil || back != v {
			t.Errorf("FromUint(%d).Uint() = %d, %v", v, back, err)
		}

		w := int(width)
		if w <= 64 && (w == 64 || v>>uint(w) == 0) {
			ff := FromUintFixed(v, w)
			checkWellFormed(t, "FromUintFixed", ff)
			if ref := RefFromUintFixed(v, w); !ff.Equal(ref) {
				t.Errorf("FromUintFixed(%d, %d) = %q, want %q", v, w, ff, ref)
			}
		}

		s := fromFuzz(t, data, uint16(v)%uint16(8*len(data)+1))
		if got := string(s.AppendText(nil)); got != RefString(s) {
			t.Errorf("AppendText = %q, want %q", got, RefString(s))
		}
		parsed, err := Parse(RefString(s))
		if err != nil || !parsed.Equal(s) {
			t.Errorf("Parse(String(%q)) = %q, %v", s, parsed, err)
		}

		wire := s.AppendTo(nil)
		dec, used, err := DecodeFrom(wire)
		if err != nil || used != len(wire) || !dec.Equal(s) {
			t.Errorf("DecodeFrom round trip of %q: %q, %d, %v", s, dec, used, err)
		}
		checkWellFormed(t, "DecodeFrom", dec)
		// The no-copy reader, with more stored strings behind the one
		// it reads, as an arena has.
		if s.EncodedLen() != len(wire) {
			t.Errorf("EncodedLen of %q = %d, AppendTo wrote %d", s, s.EncodedLen(), len(wire))
		}
		n, packed := Stored(append(wire, 0xFF, 0xFF))
		view := View(packed, n)
		if !view.Equal(s) {
			t.Errorf("Stored round trip of %q: %q", s, view)
		}
		checkWellFormed(t, "Stored", view)
		// Stored's ordering claim, against a neighbour of s.
		u := s.AppendBit(byte(v & 1)).Prefix(int(v>>1) % (s.Len() + 2))
		un, up := Stored(u.AppendTo(nil))
		c := bytes.Compare(packed, up)
		if c == 0 {
			c = cmp.Compare(n, un)
		}
		if c != s.Compare(u) {
			t.Errorf("stored order of %q and %q is %d, Compare %d", s, u, c, s.Compare(u))
		}
	})
}
