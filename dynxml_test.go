package dynxml

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func TestCodeFacade(t *testing.T) {
	l, err := ParseCode("0011")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseCode("01")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Between(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "00111" {
		t.Errorf("Between = %q", m)
	}
	m1, m2, err := TwoBetween(l, r)
	if err != nil || !(l.Less(m1) && m1.Less(m2) && m2.Less(r)) {
		t.Errorf("TwoBetween = %v,%v,%v", m1, m2, err)
	}
	codes, err := Encode(18)
	if err != nil || len(codes) != 18 {
		t.Fatalf("Encode: %v", err)
	}
	pos, err := Position(codes[9], 18)
	if err != nil || pos != 10 {
		t.Errorf("Position = %d,%v", pos, err)
	}
	fixed, w, err := EncodeFixed(18)
	if err != nil || w != 5 || len(fixed) != 18 {
		t.Errorf("EncodeFixed: %d,%v", w, err)
	}
}

func TestOrderListFacade(t *testing.T) {
	l, err := NewOrderList(10, VCDBS)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.InsertAt(5); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 11 {
		t.Errorf("Len = %d", l.Len())
	}
	strict, err := NewOrderListPolicy(4, FCDBS, RelabelOnOverflow)
	if err != nil {
		t.Fatal(err)
	}
	_ = strict
}

func TestQEDFacade(t *testing.T) {
	l, err := ParseQED("2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ParseQED("3")
	if err != nil {
		t.Fatal(err)
	}
	m, err := QEDBetween(l, r)
	if err != nil || !(l.Less(m) && m.Less(r)) {
		t.Errorf("QEDBetween = %v, %v", m, err)
	}
	codes, err := QEDEncode(5)
	if err != nil || len(codes) != 5 {
		t.Errorf("QEDEncode: %v", err)
	}
}

func TestLabelAndQueryFacade(t *testing.T) {
	doc, err := ParseXMLString("<play><title/><act><scene/></act><act/></play>")
	if err != nil {
		t.Fatal(err)
	}
	if len(Schemes()) < 13 {
		t.Fatalf("only %d schemes", len(Schemes()))
	}
	for _, name := range Schemes() {
		h, err := Open(doc, WithScheme(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := h.Count("/play/act")
		if err != nil || n != 2 {
			t.Errorf("%s: Count = %d, %v", name, n, err)
		}
	}
	if _, err := Open(doc, WithScheme("bogus")); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// ExampleBetween demonstrates endless insertion between two codes.
func ExampleBetween() {
	l, r := EmptyCode, EmptyCode
	first, _ := Between(l, r)
	second, _ := Between(first, r)
	between, _ := Between(first, second)
	fmt.Println(first, second, between)
	// Output: 1 11 101
}

// ExampleOpen is README's Quickstart: insert between two elements,
// re-label nothing, keep querying.
func ExampleOpen() {
	h, _ := Open("<r><a/><b/></r>")               // V-CDBS-Containment by default
	x, relabeled, _ := h.InsertElement(0, 1, "x") // <x/> between <a/> and <b/>
	n, _ := h.Count("/r/*")
	ids, _ := h.QueryString("/r/x") // the cached answer: shared, read-only
	fmt.Println(relabeled, n, ids[0] == x)
	// Output: 0 3 true
}

// ExampleHandle_Labeling shows re-label-free insertion under V-CDBS
// containment.
func ExampleHandle_Labeling() {
	h, _ := Open("<r><a/><b/></r>", WithScheme("V-CDBS-Containment"))
	lab := h.Labeling()
	// Insert a new element between <a/> and <b/> (before child 1).
	_, relabeled, _ := lab.InsertChildAt(0, 1)
	fmt.Println("relabeled:", relabeled)
	// Output: relabeled: 0
}

func TestExampleDocRoundTrip(t *testing.T) {
	in := "<r><a>x</a><b/></r>"
	doc, err := ParseXMLString(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.String(), "<a>x</a>") {
		t.Errorf("round trip lost data: %s", doc.String())
	}
}

func TestSharedDocumentFacade(t *testing.T) {
	h, err := Open("<r><a/></r>", WithScheme("V-CDBS-Containment"), WithConcurrent())
	if err != nil {
		t.Fatal(err)
	}
	doc := h.Shared()
	if _, _, err := doc.InsertElement(0, 1, "b"); err != nil {
		t.Fatal(err)
	}
	n, err := doc.Count("/r/*")
	if err != nil || n != 2 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if _, err := Open("<r/>", WithScheme("bogus"), WithConcurrent()); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestLiveFacade(t *testing.T) {
	raw, err := ParseXMLString("<r><a/></r>")
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(raw, WithScheme("QED-Prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if live := h.Live(); live.Len() != 2 {
		t.Fatalf("Len = %d", live.Len())
	}
	if _, err := Open(raw, WithScheme("bogus")); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Open("<broken", WithScheme("QED-Prefix")); err == nil {
		t.Fatal("bad XML accepted")
	}
}

// TestCountHitAllocs pins what a result-cache hit costs on either kind
// of handle, with an edit the query does not read between filling the
// cache and asking again: nothing. Count reads the cached answer's
// length and QueryString returns the cached answer itself — no parse,
// no copy of the ids, no allocation — whether that is 5 ids or 3 797.
func TestCountHitAllocs(t *testing.T) {
	for name, opts := range map[string][]Option{"concurrent": {WithConcurrent()}, "live": nil} {
		h, err := Open(datagen.Hamlet(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		for _, q := range []string{"//act/scene/speech", "/play/act", "//scene/speech/line"} {
			want, err := h.Count(q)
			if err != nil || want == 0 {
				t.Fatalf("%s: Count(%s) = %d, %v", name, q, want, err)
			}
			if _, _, err := h.InsertElement(0, 0, "aside"); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if n, err := h.Count(q); err != nil || n != want {
					t.Fatalf("Count = %d, %v; want %d", n, err, want)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: Count(%s) on a result-cache hit allocates %.1f times, want 0", name, q, allocs)
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if ids, err := h.QueryString(q); err != nil || len(ids) != want {
					t.Fatalf("QueryString = %d ids, %v; want %d", len(ids), err, want)
				}
			}
			runtime.ReadMemStats(&after)
			// Per hit, rounded down as AllocsPerRun does: a stray
			// allocation of another goroutine's is not the hit's.
			if n, b := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs; n != 0 || b != 0 {
				t.Errorf("%s: a QueryString(%s) hit on %d ids allocates %d B in %d allocations, want none",
					name, q, want, b, n)
			}
		}
	}
}
