package containment

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// labelsOf returns every live node's stored label: what a holder of l
// can observe of its arena and its column of Refs.
func labelsOf(t *testing.T, l *Labeling) map[int]string {
	t.Helper()
	out := map[int]string{}
	for _, v := range l.Tree().PreOrder() {
		b, err := l.MarshalLabel(v)
		if err != nil {
			t.Error(err)
			return nil
		}
		out[v] = string(b)
	}
	return out
}

// edit applies the next n inserts of a seeded history to l: leaves
// mostly, a fragment now and then.
func edit(t *testing.T, l *Labeling, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		live := l.Tree().PreOrder()
		parent := live[rng.Intn(len(live))]
		pos := rng.Intn(len(l.Tree().Children[parent]) + 1)
		var err error
		if rng.Intn(8) == 0 {
			_, _, err = l.InsertSubtree(parent, pos, randomShape(rng))
		} else {
			_, _, err = l.InsertChildAt(parent, pos)
		}
		if err != nil {
			t.Error(err)
			return
		}
	}
}

// TestArenaCloneIsolation holds the arena and the Ref column to
// scheme.Cloner's contract where they share memory: a clone's appends
// land in the backing arrays its original still reads, and only the
// first clone to append may take the free tail. Every clone must end
// up exactly where the same edits lead with no other holder around.
// The race detector sees the concurrent halves; sharing that is a bug
// shows up as changed labels even without it.
func TestArenaCloneIsolation(t *testing.T) {
	const edits = 300
	history := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, codec := range allCodecs() {
		codec := codec
		t.Run(codec.Name(), func(t *testing.T) {
			t.Parallel()
			// published returns a labeling with some edits behind it (so
			// its arrays have the slack appends leave), and its labels.
			published := func() (*Labeling, map[int]string) {
				d, err := xmltree.ParseString("<r><a/><b><c/><c/></b><d/><e><f/></e></r>")
				if err != nil {
					t.Fatal(err)
				}
				l, err := New(codec, d)
				if err != nil {
					t.Fatal(err)
				}
				edit(t, l, history(1), 40)
				return l, labelsOf(t, l)
			}
			clone := func(l *Labeling) *Labeling { return l.CloneLabeling().(*Labeling) }
			// alone is where n edits of a history lead with no clone in
			// sight.
			alone := func(seed int64, n int) map[int]string {
				l, _ := published()
				edit(t, l, history(seed), n)
				return labelsOf(t, l)
			}
			same := func(what string, l *Labeling, want map[int]string) {
				t.Helper()
				if !reflect.DeepEqual(labelsOf(t, l), want) {
					t.Errorf("%s: labels differ from what its own edits make", what)
				}
			}
			var wg sync.WaitGroup

			// A published labeling read while its clone appends.
			pub, want := published()
			w := clone(pub)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					same("published labeling under its reader", pub, want)
				}
			}()
			edit(t, w, history(2), edits)
			wg.Wait()
			same("writer clone", w, alone(2, edits))

			// Two clones that both append, turn by turn: the second finds
			// the tail the first claimed still in use. And two more at
			// once: both reach for the tail together.
			pub, want = published()
			x, y := clone(pub), clone(pub)
			hx, hy := history(3), history(4)
			for i := 0; i < edits; i++ {
				edit(t, x, hx, 1)
				edit(t, y, hy, 1)
			}
			same("first divergent clone", x, alone(3, edits))
			same("second divergent clone", y, alone(4, edits))
			x, y = clone(pub), clone(pub)
			wg.Add(2)
			go func() { defer wg.Done(); edit(t, x, history(3), edits) }()
			go func() { defer wg.Done(); edit(t, y, history(4), edits) }()
			wg.Wait()
			same("first concurrent clone", x, alone(3, edits))
			same("second concurrent clone", y, alone(4, edits))
			same("their original", pub, want)

			// A clone that appended once and was dropped, then a fresh
			// one: the second may not reuse what the first claimed while
			// anything can still read it.
			pub, want = published()
			dropped := clone(pub)
			edit(t, dropped, history(5), 1)
			next := clone(pub)
			edit(t, next, history(6), edits)
			same("clone after a discarded one", next, alone(6, edits))
			same("discarded clone", dropped, alone(5, 1))
			same("their original", pub, want)
		})
	}
}

// TestRefusedInsertClaimsNothing: an insert over the label-length
// limit is refused from the bounds' lengths, before a key is written —
// on a clone too, whose arena its original still reads: neither side's
// LabelBytes moves. The refusal is exact: a twin without the limit
// grows the very label that was refused, and no shorter one is.
func TestRefusedInsertClaimsNothing(t *testing.T) {
	const limit = 6
	for _, codec := range []keys.Codec{keys.VCDBS(), keys.FCDBS(), keys.QED()} {
		build := func() *Labeling {
			d, err := xmltree.ParseString("<r><a/><b/></r>")
			if err != nil {
				t.Fatal(err)
			}
			l, err := New(codec, d)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		orig, twin := build(), build()
		orig.LimitLabel(limit)
		l := orig.CloneLabeling().(*Labeling)
		origBytes, origLabels := orig.LabelBytes(), labelsOf(t, orig)
		// Pile leaves, and now and then a fragment, into the gap behind
		// the first child until one is refused.
		rng := rand.New(rand.NewSource(7))
		insert := func(l *Labeling, shape *xmltree.Node) error {
			if shape != nil {
				_, _, err := l.InsertSubtree(0, 1, shape)
				return err
			}
			_, _, err := l.InsertChildAt(0, 1)
			return err
		}
		for i := 0; ; i++ {
			if i > 1000 {
				t.Fatalf("%s: limit of %d bytes never reached", codec.Name(), limit)
			}
			var shape *xmltree.Node
			if i%4 == 3 {
				shape = randomShape(rng)
			}
			before, labels := l.LabelBytes(), labelsOf(t, l)
			err := insert(l, shape)
			if terr := insert(twin, shape); terr != nil {
				t.Fatal(terr)
			}
			if err == nil {
				if l.LongestLabel() != twin.LongestLabel() || l.LongestLabel() > limit {
					t.Fatalf("%s: insert %d let a label of %d bytes in (twin %d)", codec.Name(), i, l.LongestLabel(), twin.LongestLabel())
				}
				continue
			}
			if !errors.Is(err, scheme.ErrLabelTooLong) {
				t.Fatalf("%s: insert %d: %v", codec.Name(), i, err)
			}
			if twin.LongestLabel() <= limit {
				t.Errorf("%s: insert %d refused, but its longest label would have been %d bytes", codec.Name(), i, twin.LongestLabel())
			}
			if got := l.LabelBytes(); got != before || !reflect.DeepEqual(labelsOf(t, l), labels) {
				t.Errorf("%s: the refused insert changed the clone: LabelBytes %d -> %d", codec.Name(), before, got)
			}
			break
		}
		if got := orig.LabelBytes(); got != origBytes || !reflect.DeepEqual(labelsOf(t, orig), origLabels) {
			t.Errorf("%s: the clone's inserts changed the original: LabelBytes %d -> %d", codec.Name(), origBytes, got)
		}
		// Elsewhere there is still room.
		if _, _, err := l.InsertChildAt(0, 0); err != nil {
			t.Errorf("%s: insert into another gap after the refusal: %v", codec.Name(), err)
		}
	}
}

// TestChunkedCloneIsolation takes a clone through what makes the arena
// and the Ref column add chunks while its original is read: a pile of
// inserts into one gap, whose keys grow until few fit a chunk and most
// chunks end in a key that would straddle; a fragment whose run of keys
// is longer than the largest chunk; more leaves behind it. The clone,
// and a second one that finds the tail taken, end where the same edits
// lead with no other holder around, and the original where it was.
func TestChunkedCloneIsolation(t *testing.T) {
	wide := &xmltree.Node{Kind: xmltree.Element, Name: "f"}
	for i := 0; i < 20_000; i++ {
		wide.Children = append(wide.Children, &xmltree.Node{Kind: xmltree.Element, Name: "f", Parent: wide})
	}
	for _, codec := range []keys.Codec{keys.VCDBS(), keys.QED()} {
		codec := codec
		t.Run(codec.Name(), func(t *testing.T) {
			t.Parallel()
			published := func() *Labeling {
				d, err := xmltree.ParseString("<r><a/><b><c/><c/></b><d/><e><f/></e></r>")
				if err != nil {
					t.Fatal(err)
				}
				l, err := New(codec, d)
				if err != nil {
					t.Fatal(err)
				}
				edit(t, l, rand.New(rand.NewSource(1)), 40)
				return l
			}
			heavy := func(l *Labeling, seed int64) {
				for i := 0; i < 1500; i++ {
					if _, _, err := l.InsertChildAt(0, 1); err != nil {
						t.Error(err)
						return
					}
				}
				if _, _, err := l.InsertSubtree(0, 0, wide); err != nil {
					t.Error(err)
				}
				edit(t, l, rand.New(rand.NewSource(seed)), 20)
			}
			pub := published()
			want := labelsOf(t, pub)
			w, late := pub.CloneLabeling().(*Labeling), pub.CloneLabeling().(*Labeling)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if !reflect.DeepEqual(labelsOf(t, pub), want) {
						t.Error("the original's labels changed under its reader")
					}
				}
			}()
			heavy(w, 2)
			wg.Wait()
			heavy(late, 3)
			for seed, l := range map[int64]*Labeling{2: w, 3: late} {
				alone := published()
				heavy(alone, seed)
				if !reflect.DeepEqual(labelsOf(t, l), labelsOf(t, alone)) {
					t.Errorf("clone with history %d: labels differ from what its own edits make", seed)
				}
			}
			if !reflect.DeepEqual(labelsOf(t, pub), want) {
				t.Error("the clones' edits changed the original")
			}
		})
	}
}
