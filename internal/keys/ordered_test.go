package keys

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestOrderedBytesAgree is the property the paged index backend rests
// on: for every codec exposing OrderedBytes, bytes.Compare on the
// encodings Arena.AppendOrdered gives must agree with the codec's own
// order (the boxed reference's Compare), and distinct keys must encode
// distinctly — including keys made between others, whose lengths vary
// freely, words and stored keys both.
func TestOrderedBytesAgree(t *testing.T) {
	for _, c := range allCodecs() {
		if _, ok := c.(OrderedBytes); !ok {
			continue
		}
		ob := box(c)
		t.Run(c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			a, err := NewArena(c)
			if err != nil {
				t.Fatal(err)
			}
			ks, err := a.Encode(64)
			if err != nil {
				t.Fatal(err)
			}
			// Grow the key population with random midpoint insertions so
			// lengths diverge (the padding-sensitive case).
			for i := 0; i < 400; i++ {
				at := rng.Intn(len(ks)-1) + 1
				mid, err := a.NBetween(ks[at-1], ks[at], 1, 0, nil)
				if err != nil {
					t.Fatalf("between: %v", err)
				}
				ks = append(ks[:at], append(mid, ks[at:]...)...)
			}
			enc := make([][]byte, len(ks))
			for i, k := range ks {
				e, ok := a.AppendOrdered(nil, k)
				if !ok {
					t.Fatalf("key %d has no ordered form", i)
				}
				if len(e) == 0 {
					t.Fatalf("key %d encodes empty", i)
				}
				enc[i] = e
			}
			for i := 0; i < len(ks); i++ {
				for j := i + 1; j < len(ks); j++ {
					want := ob.Compare(a.Key(ks[i]), a.Key(ks[j]))
					got := bytes.Compare(enc[i], enc[j])
					if got != want {
						t.Fatalf("order disagrees at (%d,%d): codec %d, bytes %d (%x vs %x)",
							i, j, want, got, enc[i], enc[j])
					}
				}
			}
		})
	}
}
