package keys

import (
	"bytes"
	"cmp"
	"testing"

	"repro/internal/bitstr"
)

// pile is a FuzzWordOrder history of k pairs, each put in front of the
// one before it, behind a fixed left neighbour: one gap, each pair's
// first code a bit longer than the last pair's under CDBS.
func pile(k int) []byte { return make([]byte, k) }

// FuzzWordOrder grows a sorted run of keys with the arena's own
// kernels under V-CDBS, F-CDBS and QED — Encode, then TwoBetween and
// NBetween where ops say, so that words, stored keys and gaps between
// one of each all occur — and holds the arena to the keys' stored
// forms: a key is a word exactly when it fits one, Compare orders every
// pair as the run and the stored forms do, and AppendKey,
// AppendOrdered, OrderedLen and TotalBits read what the stored form
// gives. An op byte below 0x80 goes into the gap the last one did, in
// front of its keys; one above picks a gap across the run. Bit 6 asks
// for a run of op&7+2 keys, or else for a pair.
func FuzzWordOrder(f *testing.F) {
	// From Encode(2), the k-th pair's codes are k+2 and k+3 bits: the
	// longest is 30, 31 and 32 bits long after 27, 28 and 29 pairs.
	f.Add(uint16(2), pile(27))
	f.Add(uint16(2), pile(28))
	f.Add(uint16(2), pile(29))
	f.Add(uint16(2), pile(70)) // stored keys behind stored keys
	f.Add(uint16(40), append(pile(40), 0xc3, 0x47, 0x91, 0x55, 0xff, 0x80, 0x00, 0x41))
	f.Add(uint16(127), []byte{0xff, 0xbf, 0x80, 0xc7, 0x44, 0x00, 0x00, 0xe1})
	f.Fuzz(func(t *testing.T, n uint16, ops []byte) {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		for _, c := range []Codec{VCDBS(), FCDBS(), QED()} {
			a, err := NewArena(c)
			if err != nil {
				t.Fatal(err)
			}
			refs, err := a.Encode(int(n%128) + 1)
			if err != nil {
				t.Fatal(err)
			}
			bound := func(p int) Ref { // the open ends are the empty word
				if p < 0 || p >= len(refs) {
					return inline
				}
				return refs[p]
			}
			at := min(1, len(refs))
			for _, op := range ops {
				if op >= 0x80 {
					at = int(op&0x3f) * (len(refs) + 1) / 64
				}
				var ms []Ref
				if op&0x40 != 0 {
					ms, err = a.NBetween(bound(at-1), bound(at), int(op&7)+2, 0, nil)
				} else {
					var m1, m2 Ref
					m1, m2, err = a.TwoBetween(bound(at-1), bound(at), 0)
					ms = []Ref{m1, m2}
				}
				if err != nil {
					t.Fatalf("%s: gap %d of %d: %v", c.Name(), at, len(refs), err)
				}
				refs = append(refs[:at], append(ms, refs[at:]...)...)
			}
			checkWords(t, &a, refs)
		}
	})
}

// checkWords holds every read of the keys refs names, in key order, to
// what their stored forms give.
func checkWords(t *testing.T, a *Arena, refs []Ref) {
	t.Helper()
	name := a.Codec().Name()
	stored := make([][]byte, len(refs))
	var t1 tally
	for i, r := range refs {
		s := a.Stored(r)
		stored[i] = s
		units, ordered := bitstr.Stored(s)
		if a.sym() == 2 {
			units, ordered = len(digitsAt(s)), digitsAt(s)
		}
		if (r&inline != 0) != a.fits(units) {
			t.Fatalf("%s: key %d of %d symbols is a word: %v", name, i, units, r&inline != 0)
		}
		if got, want := a.AppendKey(nil, r), a.k.marshal(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: key %d AppendKey %x, stored form's %x", name, i, got, want)
		}
		if got, ok := a.AppendOrdered(nil, r); !ok || !bytes.Equal(got, ordered) || a.OrderedLen(r) != len(ordered) {
			t.Fatalf("%s: key %d ordered %x (len %d), stored form's %x", name, i, got, a.OrderedLen(r), ordered)
		}
		t1.add(a.k.bits(s))
	}
	if got, want := a.TotalBits(refs), a.k.total(t1); got != want {
		t.Fatalf("%s: TotalBits %d, stored forms' %d", name, got, want)
	}
	storedCompare := func(x, y []byte) int {
		if a.sym() == 2 {
			return codeAt(x).Compare(codeAt(y))
		}
		return bitsAt(x).Compare(bitsAt(y))
	}
	step := max(1, len(refs)/64)
	for i := range refs {
		for j := 0; j < len(refs); j++ {
			if want := cmp.Compare(i, j); sign(a.Compare(refs[i], refs[j])) != want || storedCompare(stored[i], stored[j]) != want {
				t.Fatalf("%s: keys %d and %d (%x, %x; Refs %#x, %#x): Compare %d, stored forms %d, want %d",
					name, i, j, stored[i], stored[j], refs[i], refs[j], a.Compare(refs[i], refs[j]), storedCompare(stored[i], stored[j]), want)
			}
			if j < i-2 || j > i+2 { // every pair near i, a spread beyond
				j += step - 1
			}
		}
	}
}
