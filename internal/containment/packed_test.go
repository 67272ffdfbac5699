package containment

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/keys"
)

func hamlet(tb testing.TB, codec keys.Codec) *Labeling {
	tb.Helper()
	l, err := New(codec, datagen.Hamlet())
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

var sink bool

// TestPackedPathAllocs pins what the packed representation is for: the
// predicates and the ordered-label copy read the arena in place, and
// an insert has its two keys written straight into the arena — no key
// is boxed on the way in or out.
func TestPackedPathAllocs(t *testing.T) {
	for _, codec := range allCodecs() {
		l := hamlet(t, codec)
		n := l.Tree().Cap()
		i := 0
		if got := testing.AllocsPerRun(1000, func() {
			u, v := i%n, (i*7919+13)%n
			sink = l.Before(u, v) != l.IsAncestor(u, v)
			i++
		}); got != 0 {
			t.Errorf("%s: Before+IsAncestor allocate %.1f times", codec.Name(), got)
		}
		if _, ok := codec.(keys.OrderedBytes); !ok {
			continue
		}
		dst := make([]byte, 0, 64)
		if got := testing.AllocsPerRun(1000, func() {
			var err error
			if dst, err = l.AppendOrderedLabel(dst[:0], i%n); err != nil {
				t.Fatal(err)
			}
			i++
		}); got != 0 {
			t.Errorf("%s: AppendOrderedLabel into a reused buffer allocates %.1f times", codec.Name(), got)
		}
	}
	// What is left is the parent's child list, built at its exact size
	// and so moved by the first insert under it; the arena, the Ref
	// column and the tree's columns grow by amortised doubling, which
	// rounds to 0.
	l := hamlet(t, keys.VCDBS())
	n, i := l.Tree().Cap(), 0
	if got := testing.AllocsPerRun(2000, func() {
		if _, _, err := l.InsertChildAt(i%n, 0); err != nil {
			t.Fatal(err)
		}
		i++
	}); got > 1 {
		t.Errorf("V-CDBS InsertChildAt allocates %.1f times, want <= 1", got)
	}
}

// BenchmarkCompare is the query-time cost of a label: one Before and
// one IsAncestor between pseudo-random Hamlet nodes.
func BenchmarkCompare(b *testing.B) {
	for _, codec := range allCodecs() {
		b.Run(codec.Name(), func(b *testing.B) {
			l := hamlet(b, codec)
			n := l.Tree().Cap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u, v := i%n, (i*7919+13)%n
				sink = l.Before(u, v) != l.IsAncestor(u, v)
			}
		})
	}
}

// BenchmarkInsertChildAt spreads leaf inserts over Hamlet's nodes.
func BenchmarkInsertChildAt(b *testing.B) {
	l := hamlet(b, keys.VCDBS())
	n := l.Tree().Cap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.InsertChildAt(i%n, 0); err != nil {
			b.Fatal(err)
		}
	}
}
