package containment

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// TestOpenMatchesOracle holds every label of a fresh labelling, under
// all six codecs, to the boxed reference kernels' (cdbs.Encode,
// qed.Encode and the static codecs' own): on Hamlet and on the first
// files of each of D1–D6.
func TestOpenMatchesOracle(t *testing.T) {
	docs := map[string]*xmltree.Document{"Hamlet": datagen.Hamlet()}
	for _, spec := range datagen.Specs() {
		ds, err := datagen.Generate(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range ds.Files[:2] {
			docs[fmt.Sprintf("%s/%d", spec.Name, i)] = f
		}
	}
	for name, d := range docs {
		for _, codec := range allCodecs() {
			l, err := New(codec, d)
			if err != nil {
				t.Fatal(err)
			}
			newOracle(t, codec, d).check(t, l, rand.New(rand.NewSource(1)), name+" "+codec.Name())
		}
	}
}

// TestReassignAllocs: relabelling compares each old key with its new
// one by value, so a second reassign of a word-keyed labeling
// allocates the same few objects — the arena, the Ref column, the walk
// — on ten plays as on Hamlet.
func TestReassignAllocs(t *testing.T) {
	plays := xmltree.NewElement("plays")
	for _, f := range datagen.D5(1).Files[:10] {
		plays.AppendChild(f.Root)
	}
	for _, codec := range []keys.Codec{keys.VCDBS(), keys.FCDBS()} {
		var counts []float64
		for _, d := range []*xmltree.Document{datagen.Hamlet(), {Root: plays}} {
			l, err := New(codec, d)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, testing.AllocsPerRun(5, func() {
				if changed, err := l.reassign(); err != nil || changed != 0 {
					t.Fatalf("reassign: %d changed, %v", changed, err)
				}
			}))
		}
		t.Logf("%s: a reassign allocates %v times on Hamlet and on ten plays", codec.Name(), counts)
		if counts[0] != counts[1] || counts[0] > 8 {
			t.Errorf("%s: a reassign allocates %v times on Hamlet and on ten plays, want the same, at most 8", codec.Name(), counts)
		}
	}
}

// TestEscapedKeys counts the keys too long for a word: none after a
// labelling, and, after BenchmarkCompare's escaped setup, 200 inserts
// into one gap of Hamlet under V-CDBS, those TestSingleGapGrowth
// implies — insert 17's end key, then both keys of every later insert.
func TestEscapedKeys(t *testing.T) {
	for _, codec := range allCodecs() {
		l := hamlet(t, codec)
		want := 0
		if _, ok := codec.(keys.OrderedBytes); !ok {
			want = 2 * l.Len() // no word form: every key is in the arena
		}
		if got := l.EscapedKeys(); got != want {
			t.Errorf("%s: Hamlet has %d escaped keys, want %d", codec.Name(), got, want)
		}
	}
	l := hamlet(t, keys.VCDBS())
	ids, implied := singleGap(t, l, 200), 0
	for _, id := range ids {
		for _, k := range []keys.Key{l.StartKey(id), l.EndKey(id)} {
			if keyBits(k) > 31 {
				implied++
			}
		}
	}
	if got, want := l.EscapedKeys(), 1+2*(200-17); got != want || implied != want {
		t.Errorf("200 inserts into one gap: %d escaped keys, %d longer than a word, want %d", got, implied, want)
	}
	if _, err := l.DeleteSubtree(ids[199]); err != nil {
		t.Fatal(err)
	}
	if got, want := l.EscapedKeys(), 2*(200-17)-1; got != want {
		t.Errorf("after deleting the last insert: %d escaped keys, want %d", got, want)
	}
}
