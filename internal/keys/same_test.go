package keys

import (
	"bytes"
	"testing"
)

var sink bool

// TestSameByValue holds Same to the stored forms on words, stored keys
// and mixed pairs of two arenas grown alike, and pins that it compares
// without allocating: two words as integers, any other pair through
// buffers on the stack.
func TestSameByValue(t *testing.T) {
	for _, c := range []Codec{VCDBS(), QED(), VBinary(), Float()} {
		var refs [2][]Ref
		var arenas [2]Arena
		for i := range arenas {
			var err error
			if arenas[i], err = NewArena(c); err != nil {
				t.Fatal(err)
			}
			if refs[i], err = arenas[i].Encode(6); err != nil {
				t.Fatal(err)
			}
			// Under a dynamic codec a pile into one gap, long enough to
			// escape the word.
			for j, right := 0, refs[i][1]; j < 40 && c.Dynamic(); j++ {
				m1, m2, err := arenas[i].TwoBetween(refs[i][0], right, 0)
				if err != nil {
					t.Fatal(err)
				}
				refs[i], right = append(refs[i], m1, m2), m1
			}
		}
		a, b := &arenas[0], &arenas[1]
		for x := range refs[0] {
			for y := range refs[1] {
				want := bytes.Equal(a.Stored(refs[0][x]), b.Stored(refs[1][y]))
				if got := Same(a, refs[0][x], b, refs[1][y]); got != want || got != (x == y) {
					t.Fatalf("%s: Same(key %d, key %d) = %v, stored forms equal %v", c.Name(), x, y, got, want)
				}
			}
		}
		n := len(refs[0])
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			x, y := refs[0][i%n], refs[1][(i*7)%n]
			sink = Same(a, x, b, y) != Same(b, y, a, x)
			i++
		}); allocs != 0 {
			t.Errorf("%s: Same allocates %.1f times", c.Name(), allocs)
		}
	}
}
