package containment

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/keys"
	"repro/internal/qed"
)

// singleGap inserts n leaves into one gap of l, the label-updates
// workload's skewed inserts: behind the first child of the middle
// element with children, in front of everything inserted there before.
// It returns the new ids in insert order.
func singleGap(tb testing.TB, l *Labeling, n int) []int {
	tb.Helper()
	ids, parent := make([]int, n), gapParent(l)
	for i := range ids {
		id, _, err := l.InsertChildAt(parent, 1)
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// gapParent returns the middle element with children, in document
// order, of l as built.
func gapParent(l *Labeling) int {
	var parents []int
	for _, v := range l.Tree().PreOrder() {
		if len(l.Tree().Kids(v)) > 0 {
			parents = append(parents, v)
		}
	}
	return parents[len(parents)/2]
}

// keyBits returns the bits of a CDBS or QED key.
func keyBits(k keys.Key) int {
	if c, ok := k.(qed.Code); ok {
		return c.Bits()
	}
	return k.(bitstr.BitString).Len()
}

// TestSingleGapGrowth logs, for V-CDBS and QED, the bits each of 200
// inserts into one gap of Hamlet adds to the new node's start key, and
// the insert whose keys are the first too long for a word: from there
// on every insert into that gap writes its keys to the arena. Hamlet's
// own keys are all words.
func TestSingleGapGrowth(t *testing.T) {
	for _, codec := range []keys.Codec{keys.VCDBS(), keys.QED()} {
		l := hamlet(t, codec)
		if l.keys.Size() != 0 {
			t.Errorf("%s: Hamlet's labels claimed %d arena bytes", codec.Name(), l.keys.Size())
		}
		before := keyBits(l.EndKey(l.Tree().Kids(gapParent(l))[0]))
		first, prev := 0, before
		var adds []string // run-length: "1x199" is 199 inserts adding 1 bit each
		for i, run := 0, 0; i < 200; i++ {
			id := singleGap(t, l, 1)[0]
			start, end := keyBits(l.StartKey(id)), keyBits(l.EndKey(id))
			add := fmt.Sprint(start - prev)
			if run++; i == 0 || !strings.HasPrefix(adds[len(adds)-1], add+"x") {
				adds, run = append(adds, ""), 1
			}
			adds[len(adds)-1] = fmt.Sprintf("%sx%d", add, run)
			prev = start
			if first == 0 && l.keys.Size() > 0 {
				first = i + 1
				t.Logf("%s: insert %d is the first stored: start key %d bits, end key %d", codec.Name(), first, start, end)
				if end <= 31 {
					t.Errorf("%s: an end key of %d bits was stored", codec.Name(), end)
				}
			}
		}
		t.Logf("%s: the gap's left bound %d bits; bits each insert adds to the start key: %s",
			codec.Name(), before, strings.Join(adds, " "))
		if first == 0 {
			t.Errorf("%s: 200 inserts into one gap stored no key", codec.Name())
		}
	}
}
