package keys

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestOrderedBytesAgree is the property the paged index backend rests
// on: for every codec exposing OrderedBytes, bytes.Compare on the
// encodings must agree with the codec's own Compare, and distinct keys
// must encode distinctly — including keys produced by Between, whose
// lengths vary freely.
func TestOrderedBytesAgree(t *testing.T) {
	for _, c := range allCodecs() {
		ob, ok := c.(OrderedBytes)
		if !ok {
			continue
		}
		t.Run(c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			ks, err := c.Encode(64)
			if err != nil {
				t.Fatal(err)
			}
			// Grow the key population with random midpoint insertions so
			// lengths diverge (the padding-sensitive case).
			for i := 0; i < 400; i++ {
				at := rng.Intn(len(ks)-1) + 1
				mid, err := c.Between(ks[at-1], ks[at])
				if err != nil {
					t.Fatalf("between: %v", err)
				}
				ks = append(ks[:at], append([]Key{mid}, ks[at:]...)...)
			}
			enc := make([][]byte, len(ks))
			for i, k := range ks {
				e, err := ob.AppendOrdered(nil, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(e) == 0 {
					t.Fatalf("key %d encodes empty", i)
				}
				enc[i] = e
			}
			for i := 0; i < len(ks); i++ {
				for j := i + 1; j < len(ks); j++ {
					want := c.Compare(ks[i], ks[j])
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
