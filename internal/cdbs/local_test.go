package cdbs

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestLocalRelabelBoundsCodeLength(t *testing.T) {
	const window = 8
	const inserts = 3000
	l, err := NewListLocal(256, VCDBS, window)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inserts; i++ {
		if _, _, err := l.InsertAt(128); err != nil { // relentless skew
			t.Fatal(err)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	events, total := l.Relabels()
	if events == 0 || total == 0 {
		t.Fatal("skewed storm never triggered a local relabel")
	}
	// Code lengths stay within a small constant of the compact
	// optimum — the property Widen gives up (its hot code reaches
	// ~3000 bits on this workload).
	maxLen := 0
	for i := 0; i < l.Len(); i++ {
		if n := l.Code(i).Len(); n > maxLen {
			maxLen = n
		}
	}
	if bound := 3*FixedWidth(l.Len()) + 8; maxLen > bound {
		t.Errorf("max code length %d exceeds %d", maxLen, bound)
	}
	// Rewrite volume sits far below the strict Relabel policy, which
	// rewrites the whole list every overflow (~n per insert here).
	if perInsert := float64(total) / inserts; perInsert > float64(l.Len())/8 {
		t.Errorf("amortized rewrites %.1f/insert not clearly below full relabeling", perInsert)
	}
}

func TestLocalRelabelStorageVsWiden(t *testing.T) {
	// Under the same skewed storm, LocalRelabel storage stays near the
	// compact optimum while Widen balloons.
	const inserts = 1500
	local, err := NewListLocal(64, VCDBS, 16)
	if err != nil {
		t.Fatal(err)
	}
	widen, err := NewListPolicy(64, VCDBS, Widen)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inserts; i++ {
		if _, _, err := local.InsertAt(32); err != nil {
			t.Fatal(err)
		}
		if _, _, err := widen.InsertAt(32); err != nil {
			t.Fatal(err)
		}
	}
	lb, wb := local.TotalBits(), widen.TotalBits()
	if lb*10 > wb {
		t.Errorf("LocalRelabel storage %d not an order of magnitude below Widen %d", lb, wb)
	}
	// And within a small factor of a fresh compact encoding.
	fresh, err := NewList(local.Len(), VCDBS)
	if err != nil {
		t.Fatal(err)
	}
	if lb > 3*fresh.TotalBits() {
		t.Errorf("LocalRelabel storage %d more than 3x compact %d", lb, fresh.TotalBits())
	}
}

func TestLocalRelabelRandomOps(t *testing.T) {
	gen := rand.New(rand.NewSource(41))
	for _, v := range []Variant{VCDBS, FCDBS} {
		l, err := NewListLocal(10, v, 4)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 2000; op++ {
			if l.Len() > 4 && gen.Intn(4) == 0 {
				if err := l.Delete(gen.Intn(l.Len())); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Mix skew with random positions.
			pos := l.Len() / 2
			if gen.Intn(2) == 0 {
				pos = gen.Intn(l.Len() + 1)
			}
			if _, _, err := l.InsertAt(pos); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

func TestNewListLocalValidation(t *testing.T) {
	if _, err := NewListLocal(10, VCDBS, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewListLocal(-1, VCDBS, 4); err == nil {
		t.Error("negative size accepted")
	}
}

func BenchmarkLocalRelabelSkewed(b *testing.B) {
	l, err := NewListLocal(256, VCDBS, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.InsertAt(128); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOverflowPolicies is the Section 6 ablation: a 64-key list under
// 2 000 inserts into one gap, per variant and overflow policy. Widen
// never re-labels and grows the field instead; Relabel and LocalRelabel
// re-label, and LocalRelabel rewrites fewer codes than Relabel.
func TestOverflowPolicies(t *testing.T) {
	const n, inserts = 64, 2000
	rows := []string{"Variant\tPolicy\trelabel events\tcodes rewritten\twiden events\tfinal bits"}
	for _, v := range []Variant{VCDBS, FCDBS} {
		rewritten := map[OverflowPolicy]int64{}
		for _, p := range []struct {
			policy OverflowPolicy
			name   string
		}{{Widen, "Widen"}, {Relabel, "Relabel"}, {LocalRelabel, "LocalRelabel"}} {
			l, err := NewListPolicy(n, v, p.policy)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < inserts; i++ {
				if _, _, err := l.InsertAt(n / 2); err != nil {
					t.Fatal(err)
				}
			}
			events, codes := l.Relabels()
			rewritten[p.policy] = codes
			if p.policy == Widen {
				if events != 0 || l.WidenEvents() == 0 {
					t.Errorf("%v/%s: relabels=%d widens=%d", v, p.name, events, l.WidenEvents())
				}
			} else if events == 0 || codes == 0 {
				t.Errorf("%v/%s: no relabels under skew", v, p.name)
			}
			rows = append(rows, fmt.Sprintf("%v\t%s\t%d\t%d\t%d\t%d", v, p.name, events, codes, l.WidenEvents(), l.TotalBits()))
		}
		if v == VCDBS && rewritten[Relabel] <= rewritten[LocalRelabel] {
			t.Errorf("%v: Relabel rewrote %d codes, not above LocalRelabel's %d", v, rewritten[Relabel], rewritten[LocalRelabel])
		}
	}
	logTable(t, fmt.Sprintf("Section 6: %d inserts into one gap of a %d-key list", inserts, n), rows)
}
