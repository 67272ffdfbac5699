package bench

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cdbs"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/xpath"
)

// allRegistryNames lists every registered scheme in table order.
func allRegistryNames() []string {
	entries := registry.All()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// ---------------------------------------------------------------------------
// E4 — Table 3 / Figure 6: query response times on the scaled D5.

// Fig6Row is one bar of Figure 6.
type Fig6Row struct {
	Scheme      string
	Query       string
	Matches     int
	Millis      float64
	BuildMillis float64 // index construction, reported once per scheme
}

// Figure6 runs Q1–Q6 over D5 scaled by the given factor (the paper
// uses 10) under each scheme.
func Figure6(scale int, schemes []string) ([]Fig6Row, error) {
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	ds := datagen.D5(scale)
	var out []Fig6Row
	for _, sn := range schemes {
		corpus, buildMs, err := corpusFor(sn, ds.Files)
		if err != nil {
			return nil, err
		}
		for qi, q := range Queries() {
			parsed, err := xpath.Parse(q.Path)
			if err != nil {
				return nil, err
			}
			matches := 0
			ms, err := timeIt(func() error {
				var qerr error
				matches, qerr = corpus.Count(parsed)
				return qerr
			})
			if err != nil {
				return nil, fmt.Errorf("bench: %s %s: %w", sn, q.ID, err)
			}
			row := Fig6Row{Scheme: sn, Query: q.ID, Matches: matches, Millis: ms}
			if qi == 0 {
				row.BuildMillis = buildMs
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E5 — Table 4: number of nodes to re-label for the five Hamlet
// insertions.

// Table4Row is one row of Table 4.
type Table4Row struct {
	Scheme string
	Cases  [5]int
}

// Table4 inserts an act element before act[1..5] of Hamlet under each
// scheme and reports how many existing nodes were re-labeled (for
// Prime: how many SC values were recomputed).
func Table4(schemes []string) ([]Table4Row, error) {
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	var out []Table4Row
	for _, sn := range schemes {
		row := Table4Row{Scheme: sn}
		for c := 0; c < 5; c++ {
			doc, acts := hamletActs()
			lab, err := buildLabeling(sn, doc)
			if err != nil {
				return nil, err
			}
			_, relabeled, err := scheme.InsertSiblingBefore(lab, acts[c])
			if err != nil {
				return nil, fmt.Errorf("bench: %s case %d: %w", sn, c+1, err)
			}
			row.Cases[c] = relabeled
		}
		out = append(out, row)
	}
	return out, nil
}

// PaperTable4 returns the paper's Table 4 for comparison.
func PaperTable4() []Table4Row {
	return []Table4Row{
		{Scheme: "Prime", Cases: [5]int{1320, 1025, 787, 487, 261}},
		{Scheme: "OrdPath1-Prefix"},
		{Scheme: "OrdPath2-Prefix"},
		{Scheme: "QED-Prefix"},
		{Scheme: "Float-point-Containment"},
		{Scheme: "V-Binary-Containment", Cases: [5]int{6596, 5121, 3932, 2431, 1300}},
		{Scheme: "F-Binary-Containment", Cases: [5]int{6596, 5121, 3932, 2431, 1300}},
		{Scheme: "V-CDBS-Containment"},
		{Scheme: "F-CDBS-Containment"},
		{Scheme: "QED-Containment"},
	}
}

// ---------------------------------------------------------------------------
// E6 — Figure 7: total update time (processing + I/O) for the five
// Hamlet insertions.

// Fig7Row is one scheme's series in Figure 7.
type Fig7Row struct {
	Scheme      string
	CaseMillis  [5]float64
	Log2Millis  [5]float64 // the figure's Y axis
	Relabeled   [5]int
	LabelWrites [5]int64
}

// fig7SyncSeconds is the fsync share of Figure 7's total update time.
// It is the histogram the journal's segment syncs land in as well —
// one name for "an fsync that commits label writes" — and the one
// `experiments -run figure7` summarises under its table.
var fig7SyncSeconds = metrics.Default.Histogram("labelstore_sync_seconds", nil)

// Figure7 measures, per insertion case, the time to compute the new
// labels plus the time to persist every label the insertion dirtied
// (one write per affected node, one fsync per update transaction)
// to a plain append-only file in dir (empty means a temp dir).
func Figure7(schemes []string, dir string) ([]Fig7Row, error) {
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "cdbs-fig7-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	var out []Fig7Row
	for si, sn := range schemes {
		row := Fig7Row{Scheme: sn}
		for c := 0; c < 5; c++ {
			doc, acts := hamletActs()
			lab, err := buildLabeling(sn, doc)
			if err != nil {
				return nil, err
			}
			f, err := os.Create(filepath.Join(dir, fmt.Sprintf("s%d-c%d.log", si, c)))
			if err != nil {
				return nil, err
			}
			w := bufio.NewWriter(f)
			var relabeled int
			var writes int64
			ms, err := timeIt(func() error {
				newID, n, err := scheme.InsertSiblingBefore(lab, acts[c])
				if err != nil {
					return err
				}
				relabeled = n
				// Persist the new node's real label bytes and one
				// record per re-written label, then commit.
				payload, err := lab.MarshalLabel(newID)
				if err != nil {
					return err
				}
				for i := 0; i <= n; i++ {
					if _, err := w.Write(payload); err != nil {
						return err
					}
					writes++
				}
				if err := w.Flush(); err != nil {
					return err
				}
				start := time.Now()
				if err := f.Sync(); err != nil {
					return err
				}
				fig7SyncSeconds.Observe(time.Since(start).Seconds())
				return nil
			})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("bench: %s case %d: %w", sn, c+1, err)
			}
			row.CaseMillis[c] = ms
			row.Log2Millis[c] = math.Log2(ms + 1e-6)
			row.Relabeled[c] = relabeled
			row.LabelWrites[c] = writes
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E7 — Section 7.4: frequent updates.

// FrequentRow summarises one scheme under an insertion storm.
type FrequentRow struct {
	Scheme         string
	Inserts        int
	Skewed         bool
	Millis         float64
	MicrosPerOp    float64
	TotalRelabeled int64
}

// FrequentSchemes returns the schemes Section 7.4 compares: the paper
// drops Prime and Binary-Containment there because frequent tiny
// insertions make them "a disaster" (their per-insert cost is a full
// SC recomputation or relabel).
func FrequentSchemes() []string {
	return []string{
		"OrdPath1-Prefix",
		"OrdPath2-Prefix",
		"QED-Prefix",
		"Float-point-Containment",
		"V-CDBS-Containment",
		"F-CDBS-Containment",
		"QED-Containment",
	}
}

// Frequent performs a burst of insertions on Hamlet — uniformly random
// positions or skewed to one fixed gap — and measures pure processing
// time (the in-memory label computation the paper isolates in
// Section 7.4).
func Frequent(schemes []string, inserts int, skewed bool, seed int64) ([]FrequentRow, error) {
	if schemes == nil {
		schemes = FrequentSchemes()
	}
	var out []FrequentRow
	for _, sn := range schemes {
		doc, acts := hamletActs()
		lab, err := buildLabeling(sn, doc)
		if err != nil {
			return nil, err
		}
		gen := rand.New(rand.NewSource(seed))
		var total int64
		ms, err := timeIt(func() error {
			for i := 0; i < inserts; i++ {
				var relabeled int
				var err error
				if skewed {
					_, relabeled, err = scheme.InsertSiblingBefore(lab, acts[2])
				} else {
					tr := lab.Tree()
					parent := gen.Intn(tr.Len())
					pos := gen.Intn(len(tr.Children[parent]) + 1)
					_, relabeled, err = lab.InsertChildAt(parent, pos)
				}
				if err != nil {
					return err
				}
				total += int64(relabeled)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: frequent %s: %w", sn, err)
		}
		out = append(out, FrequentRow{
			Scheme:         sn,
			Inserts:        inserts,
			Skewed:         skewed,
			Millis:         ms,
			MicrosPerOp:    ms * 1000 / float64(inserts),
			TotalRelabeled: total,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E8 — Section 6 ablation: overflow behaviour under skewed insertion.

// OverflowRow reports one configuration of the overflow ablation.
type OverflowRow struct {
	Variant        string
	Policy         string
	InitialN       int
	Inserts        int
	RelabelEvents  int
	CodesRewritten int64
	WidenEvents    int
	FinalBits      int
}

// Overflow drives skewed insertion into a cdbs.List under both
// overflow policies and both variants, quantifying the Section 6
// trade-off: strict re-labeling versus field widening (storage
// growth).
func Overflow(initialN, inserts int) ([]OverflowRow, error) {
	var out []OverflowRow
	for _, variant := range []cdbs.Variant{cdbs.VCDBS, cdbs.FCDBS} {
		for _, policy := range []cdbs.OverflowPolicy{cdbs.Widen, cdbs.Relabel, cdbs.LocalRelabel} {
			l, err := cdbs.NewListPolicy(initialN, variant, policy)
			if err != nil {
				return nil, err
			}
			for i := 0; i < inserts; i++ {
				if _, _, err := l.InsertAt(initialN / 2); err != nil {
					return nil, err
				}
			}
			events, rewritten := l.Relabels()
			var name string
			switch policy {
			case cdbs.Relabel:
				name = "Relabel"
			case cdbs.LocalRelabel:
				name = "LocalRelabel"
			default:
				name = "Widen"
			}
			out = append(out, OverflowRow{
				Variant:        variant.String(),
				Policy:         name,
				InitialN:       initialN,
				Inserts:        inserts,
				RelabelEvents:  events,
				CodesRewritten: rewritten,
				WidenEvents:    l.WidenEvents(),
				FinalBits:      l.TotalBits(),
			})
		}
	}
	return out, nil
}
