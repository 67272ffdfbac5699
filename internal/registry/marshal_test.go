package registry

import (
	"bytes"
	"testing"
)

// TestEverySchemeMarshalsLabels checks that all labelings produce
// non-empty payloads, and distinct payloads for distinct nodes.
func TestEverySchemeMarshalsLabels(t *testing.T) {
	doc := randomDoc(50, 3)
	for _, entry := range All() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			lab, err := entry.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]int{}
			for v := 0; v < lab.Len(); v++ {
				payload, err := lab.MarshalLabel(v)
				if err != nil {
					t.Fatalf("MarshalLabel(%d): %v", v, err)
				}
				key := string(payload)
				if prev, dup := seen[key]; dup {
					t.Fatalf("nodes %d and %d share a serialised label %x", prev, v, payload)
				}
				seen[key] = v
			}
			if _, err := lab.MarshalLabel(-1); err == nil {
				t.Error("MarshalLabel(-1) succeeded")
			}
		})
	}
}

// TestMarshaledLabelsRoundTripStore marshals every label of a
// labeling in preorder, keeps the payloads the way a label log would,
// and checks each kept payload against a fresh marshal — a marshaler
// handing out a shared scratch buffer would fail it.
func TestMarshaledLabelsRoundTripStore(t *testing.T) {
	doc := randomDoc(40, 5)
	for _, name := range []string{"V-CDBS-Containment", "QED-Prefix", "Prime"} {
		entry, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := entry.Build(doc)
		if err != nil {
			t.Fatal(err)
		}
		stored := map[int][]byte{}
		for _, v := range lab.Tree().PreOrder() {
			payload, err := lab.MarshalLabel(v)
			if err != nil {
				t.Fatal(err)
			}
			stored[v] = payload
		}
		if len(stored) != lab.Len() {
			t.Fatalf("%s: %d records", name, len(stored))
		}
		for v, payload := range stored {
			want, err := lab.MarshalLabel(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, want) {
				t.Fatalf("%s: node %d payload mismatch", name, v)
			}
		}
	}
}

// TestMarshaledSizeTracksAccounting sanity-checks that serialised
// label bytes are in the same ballpark as TotalLabelBits/8 — the
// accounting and the storage form must not drift apart wildly.
func TestMarshaledSizeTracksAccounting(t *testing.T) {
	doc := randomDoc(200, 7)
	for _, name := range []string{"V-CDBS-Containment", "QED-Containment", "QED-Prefix", "OrdPath1-Prefix"} {
		entry, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := entry.Build(doc)
		if err != nil {
			t.Fatal(err)
		}
		var serialised int64
		for v := 0; v < lab.Len(); v++ {
			p, err := lab.MarshalLabel(v)
			if err != nil {
				t.Fatal(err)
			}
			serialised += int64(len(p)) * 8
		}
		accounted := lab.TotalLabelBits()
		// Serialisation adds byte padding and length prefixes; allow
		// up to 4x but require the same order of magnitude.
		if serialised < accounted/4 || serialised > accounted*4 {
			t.Errorf("%s: serialised %d bits vs accounted %d bits", name, serialised, accounted)
		}
	}
}
