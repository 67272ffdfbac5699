// Benchmarks regenerating the paper's tables and figures as Go
// testing.B benchmarks, one family per evaluation artifact:
//
//	Table 1    BenchmarkTable1Encode
//	Sec. 4.2   BenchmarkSizeAnalysis
//	Figure 5   BenchmarkFigure5Label/<scheme>
//	Tab3/Fig6  BenchmarkFigure6Query/<scheme>/<query>
//	Table 4    BenchmarkTable4Insert/<scheme>
//	Figure 7   BenchmarkFigure7Update/<scheme>
//	Sec. 7.4   BenchmarkFrequentUniform, BenchmarkFrequentSkewed
//	Sec. 6     BenchmarkOverflowAblation
//	beyond     BenchmarkLiveDocumentEdit/Query, BenchmarkBulkInsertSubtree
//
// cmd/experiments prints the corresponding paper-style tables with
// absolute numbers; these benchmarks give per-operation costs.
package dynxml_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	dynxml "repro"
	"repro/internal/bench"
	"repro/internal/cdbs"
	"repro/internal/datagen"
	"repro/internal/labelstore"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// BenchmarkTable1Encode measures the initial encoding of Table 1 (and
// a larger instance) for both CDBS variants.
func BenchmarkTable1Encode(b *testing.B) {
	for _, n := range []int{18, 4096} {
		b.Run(fmt.Sprintf("V-CDBS/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cdbs.Encode(n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("F-CDBS/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := cdbs.EncodeFixed(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSizeAnalysis evaluates the Section 4.2 size accounting.
func BenchmarkSizeAnalysis(b *testing.B) {
	ns := []int{18, 1000, 100000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.SizeFormulas(ns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Label measures labeling the D1 dataset under every
// scheme (the Figure 5 workload; D1 keeps iterations tractable).
func BenchmarkFigure5Label(b *testing.B) {
	ds, err := datagen.Generate("D1")
	if err != nil {
		b.Fatal(err)
	}
	for _, entry := range registry.All() {
		entry := entry
		b.Run(entry.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var bits int64
				for _, f := range ds.Files {
					lab, err := entry.Build(f)
					if err != nil {
						b.Fatal(err)
					}
					bits += lab.TotalLabelBits()
				}
				b.ReportMetric(float64(bits)/float64(ds.TotalNodes()), "bits/node")
			}
		})
	}
}

// BenchmarkFigure6Query measures Q1–Q6 response time per scheme on the
// unscaled D5 corpus (the paper's Figure 6 uses ×10; scale here keeps
// benchmark wall time sane — shapes are scale-invariant).
func BenchmarkFigure6Query(b *testing.B) {
	ds := datagen.D5(1)
	for _, sn := range bench.DefaultSchemes() {
		entry, err := registry.Lookup(sn)
		if err != nil {
			b.Fatal(err)
		}
		var corpus xpath.Corpus
		for _, f := range ds.Files {
			lab, err := entry.Build(f)
			if err != nil {
				b.Fatal(err)
			}
			e, err := xpath.NewEngine(f, lab)
			if err != nil {
				b.Fatal(err)
			}
			corpus = append(corpus, e)
		}
		for _, q := range bench.Queries() {
			parsed, err := xpath.Parse(q.Path)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(sn+"/"+q.ID, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := corpus.Count(parsed); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// hamletLabeling builds one scheme over a fresh Hamlet and returns the
// act node ids.
func hamletLabeling(b *testing.B, schemeName string) (scheme.Labeling, []int) {
	b.Helper()
	doc := datagen.Hamlet()
	var acts []int
	for i, n := range doc.Nodes() {
		if n.Kind == xmltree.Element && n.Name == "act" && n.Parent == doc.Root {
			acts = append(acts, i)
		}
	}
	entry, err := registry.Lookup(schemeName)
	if err != nil {
		b.Fatal(err)
	}
	lab, err := entry.Build(doc)
	if err != nil {
		b.Fatal(err)
	}
	return lab, acts
}

// BenchmarkTable4Insert measures one act insertion into Hamlet per
// scheme (the Table 4 workload); the labeling grows across iterations,
// as a document under sustained editing would.
func BenchmarkTable4Insert(b *testing.B) {
	for _, sn := range bench.DefaultSchemes() {
		sn := sn
		b.Run(sn, func(b *testing.B) {
			lab, acts := hamletLabeling(b, sn)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := lab.InsertSiblingBefore(acts[i%5]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7Update measures insertion plus persisted label
// writes and fsync — the "total time" of Figure 7.
func BenchmarkFigure7Update(b *testing.B) {
	for _, sn := range bench.DefaultSchemes() {
		sn := sn
		b.Run(sn, func(b *testing.B) {
			lab, acts := hamletLabeling(b, sn)
			labelBytes := int(lab.TotalLabelBits()/int64(lab.Len())/8) + 1
			payload := make([]byte, labelBytes)
			store, err := labelstore.Create(filepath.Join(b.TempDir(), "labels.log"))
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, relabeled, err := lab.InsertSiblingBefore(acts[i%5])
				if err != nil {
					b.Fatal(err)
				}
				if err := store.Write(uint64(id), payload); err != nil {
					b.Fatal(err)
				}
				for w := 0; w < relabeled; w++ {
					if err := store.Write(uint64(w), payload); err != nil {
						b.Fatal(err)
					}
				}
				if err := store.Sync(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrequentUniform measures per-insert processing cost under
// uniformly random insertion positions (Section 7.4).
func BenchmarkFrequentUniform(b *testing.B) {
	benchmarkFrequent(b, false)
}

// BenchmarkFrequentSkewed measures per-insert processing cost when
// every insertion hits the same gap (Section 7.4's skewed case).
func BenchmarkFrequentSkewed(b *testing.B) {
	benchmarkFrequent(b, true)
}

func benchmarkFrequent(b *testing.B, skewed bool) {
	for _, sn := range bench.FrequentSchemes() {
		sn := sn
		b.Run(sn, func(b *testing.B) {
			lab, acts := hamletLabeling(b, sn)
			gen := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if skewed {
					_, _, err = lab.InsertSiblingBefore(acts[2])
				} else {
					tr := lab.Tree()
					parent := gen.Intn(tr.Len())
					pos := gen.Intn(len(tr.Children[parent]) + 1)
					_, _, err = lab.InsertChildAt(parent, pos)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverflowAblation measures skewed insertion into a CDBS
// order list under both overflow policies (Section 6).
func BenchmarkOverflowAblation(b *testing.B) {
	for _, policy := range []struct {
		name string
		p    cdbs.OverflowPolicy
	}{{"Widen", cdbs.Widen}, {"Relabel", cdbs.Relabel}, {"LocalRelabel", cdbs.LocalRelabel}} {
		policy := policy
		b.Run(policy.name, func(b *testing.B) {
			l, err := cdbs.NewListPolicy(64, cdbs.VCDBS, policy.p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := l.InsertAt(32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveDocumentEdit measures the full live-document pipeline —
// label insert + tree edit + index maintenance — per scheme family.
func BenchmarkLiveDocumentEdit(b *testing.B) {
	for _, sn := range []string{"V-CDBS-Containment", "QED-Prefix"} {
		sn := sn
		b.Run(sn, func(b *testing.B) {
			h, err := dynxml.Open("<r><a/><b/></r>", dynxml.WithScheme(sn))
			if err != nil {
				b.Fatal(err)
			}
			doc := h.Live()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := doc.InsertElement(0, 1, "x"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveDocumentQuery measures query latency on a live document
// that has absorbed edits.
func BenchmarkLiveDocumentQuery(b *testing.B) {
	h, err := dynxml.Open("<r><a/><b/></r>", dynxml.WithScheme("V-CDBS-Containment"))
	if err != nil {
		b.Fatal(err)
	}
	doc := h.Live()
	for i := 0; i < 2000; i++ {
		if _, _, err := doc.InsertElement(0, 1, "x"); err != nil {
			b.Fatal(err)
		}
	}
	q, err := dynxml.ParseQuery("/r/x[1500]")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := doc.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkInsertSubtree measures batch fragment labeling
// (InsertSubtree with NBetween) against node-by-node insertion.
func BenchmarkBulkInsertSubtree(b *testing.B) {
	shape := xmltree.NewElement("frag")
	for i := 0; i < 9; i++ {
		c := shape.AppendChild(xmltree.NewElement("c"))
		for j := 0; j < 4; j++ {
			c.AppendChild(xmltree.NewElement("d"))
		}
	}
	for _, sn := range []string{"V-CDBS-Containment", "QED-Containment"} {
		sn := sn
		b.Run(sn, func(b *testing.B) {
			lab, _ := hamletLabeling(b, sn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := lab.InsertSubtree(0, 2, shape); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
