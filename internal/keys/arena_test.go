package keys

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestArenaMatchesKeyLevelCodec grows one sorted key list twice, as
// Keys through the Codec methods and as Refs through an Arena, with
// the same seeded Between and NBetween calls, and holds every answer
// the arena gives to the Key-level one.
func TestArenaMatchesKeyLevelCodec(t *testing.T) {
	for _, c := range allCodecs() {
		a, err := NewArena(c)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := c.Encode(12)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := a.Encode(12)
		if err != nil || len(refs) != len(ks) {
			t.Fatalf("%s: Encode: %d refs, %v", c.Name(), len(refs), err)
		}
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 300; step++ {
			p := 1 + rng.Intn(len(ks)-1) // the gap between p-1 and p
			n := 1 + rng.Intn(4)*rng.Intn(2)
			var newKeys []Key
			var newRefs []Ref
			var kerr, rerr error
			if n == 1 {
				// A pair: the second key between the first and the bound.
				var k1, k2 Key
				if k1, kerr = c.Between(ks[p-1], ks[p]); kerr == nil {
					k2, kerr = c.Between(k1, ks[p])
				}
				var r1, r2 Ref
				r1, r2, rerr = a.TwoBetween(refs[p-1], refs[p], 0)
				newKeys, newRefs = []Key{k1, k2}, []Ref{r1, r2}
			} else {
				newKeys, kerr = c.NBetween(ks[p-1], ks[p], n)
				newRefs, rerr = a.NBetween(refs[p-1], refs[p], n, 0, nil)
			}
			if (kerr == nil) != (rerr == nil) || errors.Is(kerr, ErrNoRoom) != errors.Is(rerr, ErrNoRoom) {
				t.Fatalf("%s step %d: codec error %v, arena error %v", c.Name(), step, kerr, rerr)
			}
			if kerr != nil {
				continue
			}
			ks = append(ks[:p], append(newKeys, ks[p:]...)...)
			refs = append(refs[:p], append(newRefs, refs[p:]...)...)
		}
		m := c.(Marshaler)
		ob, ordered := c.(OrderedBytes)
		for i, r := range refs {
			got := a.Key(r)
			if reflect.TypeOf(got) != reflect.TypeOf(ks[i]) || c.Compare(got, ks[i]) != 0 {
				t.Fatalf("%s: key %d is %v, codec has %v", c.Name(), i, got, ks[i])
			}
			want, _ := m.AppendKey(nil, ks[i])
			if !bytes.Equal(a.AppendKey(nil, r), want) {
				t.Errorf("%s: key %d marshals differently", c.Name(), i)
			}
			o, ok := a.Ordered(r)
			if ok != ordered {
				t.Fatalf("%s: Ordered ok = %v", c.Name(), ok)
			}
			if ordered {
				if want, _ := ob.AppendOrdered(nil, ks[i]); !bytes.Equal(o, want) {
					t.Errorf("%s: key %d ordered bytes %x, codec %x", c.Name(), i, o, want)
				}
			}
			j := rng.Intn(len(refs))
			if a.Compare(r, refs[j]) != c.Compare(ks[i], ks[j]) {
				t.Errorf("%s: Compare(%d,%d) differs", c.Name(), i, j)
			}
		}
		if got, want := a.TotalBits(refs), c.TotalBits(ks); got != want {
			t.Errorf("%s: TotalBits %d, codec %d", c.Name(), got, want)
		}
	}
}
