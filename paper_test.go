package dynxml

// The paper's evaluation (Section 7), table by table. Each TestPaper*
// builds its table from the production packages, checks the paper's
// claims on it and logs it, so
//
//	go test -v -run TestPaper .
//
// prints every table EXPERIMENTS.md quotes. Table 1, the Section 4.2
// size formulas and the Section 6 overflow ablation are internal/cdbs's
// tests. Sizes and re-label counts are exact; times are this machine's
// and only their orderings are checked.

import (
	"bufio"
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"text/tabwriter"
	"time"

	"repro/internal/datagen"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// paperSchemes are the schemes of Table 4 and Figures 6 and 7, in
// Table 4's row order.
var paperSchemes = []string{
	"Prime",
	"OrdPath1-Prefix",
	"OrdPath2-Prefix",
	"QED-Prefix",
	"Float-point-Containment",
	"V-Binary-Containment",
	"F-Binary-Containment",
	"V-CDBS-Containment",
	"F-CDBS-Containment",
	"QED-Containment",
}

// TestPaperFigure5 labels every file of D1–D6 under every scheme and
// checks Figure 5's size orderings and equalities on the bits per node.
func TestPaperFigure5(t *testing.T) {
	specs := datagen.Specs()
	perNode := make([]map[string]float64, len(specs))
	t.Run("datasets", func(t *testing.T) {
		for i, spec := range specs {
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				perNode[i] = bitsPerNode(t, spec, registry.All())
				figure5Shape(t, spec.Name, perNode[i])
			})
		}
	})
	if t.Failed() {
		return
	}
	head := "Scheme"
	for _, spec := range specs {
		head += "\t" + spec.Name
	}
	rows := []string{head}
	for _, e := range registry.All() {
		row := e.Name
		for i := range specs {
			row += fmt.Sprintf("\t%.1f", perNode[i][e.Name])
		}
		rows = append(rows, row)
	}
	logTable(t, "Figure 5: label size (bits per node)", rows)
}

// TestPaperFigure5PrimeBlowup checks Figure 5's Prime claim: its
// products outgrow the containment codes once files carry thousands of
// nodes. D1's 53-node files keep its primes small, so D1 is left out.
func TestPaperFigure5PrimeBlowup(t *testing.T) {
	var entries []registry.Entry
	for _, name := range []string{"Prime", "V-CDBS-Containment", "QED-Containment"} {
		e, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	for _, spec := range datagen.Specs() {
		if spec.Name == "D1" {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			per := bitsPerNode(t, spec, entries)
			for _, name := range []string{"V-CDBS-Containment", "QED-Containment"} {
				if !(per[name] < per["Prime"]) {
					t.Errorf("%s: %s %.2f not below Prime %.2f", spec.Name, name, per[name], per["Prime"])
				}
			}
		})
	}
}

// bitsPerNode labels every file of one dataset under each entry's
// scheme and returns the bits per node by scheme name.
func bitsPerNode(t *testing.T, spec datagen.Spec, entries []registry.Entry) map[string]float64 {
	t.Helper()
	ds, err := datagen.Generate(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	per := map[string]float64{}
	for _, e := range entries {
		var bits, nodes int64
		for _, f := range ds.Files {
			lab, err := e.Build(f)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			bits += lab.TotalLabelBits()
			nodes += int64(lab.Len())
		}
		if nodes != int64(spec.TotalNodes) {
			t.Fatalf("%s: %d nodes, want %d", e.Name, nodes, spec.TotalNodes)
		}
		per[e.Name] = float64(bits) / float64(nodes)
	}
	return per
}

// figure5Shape checks the paper's size orderings and equalities on one
// dataset's bits per node.
func figure5Shape(t *testing.T, dataset string, per map[string]float64) {
	t.Helper()
	less := [][2]string{
		{"V-CDBS-Containment", "QED-Containment"},
		{"QED-Prefix", "OrdPath1-Prefix"},
		{"QED-Prefix", "OrdPath2-Prefix"},
		{"QED-Prefix", "DeweyID(UTF8)-Prefix"},
		{"OrdPath1-Prefix", "OrdPath2-Prefix"},
	}
	// Two 64-bit endpoints make Float-point the largest containment
	// scheme.
	for name := range per {
		if strings.HasSuffix(name, "-Containment") && name != "Float-point-Containment" {
			less = append(less, [2]string{name, "Float-point-Containment"})
		}
	}
	for _, c := range less {
		if !(per[c[0]] < per[c[1]]) {
			t.Errorf("%s: %s %.2f not below %s %.2f", dataset, c[0], per[c[0]], c[1], per[c[1]])
		}
	}
	equal := [][2]string{
		{"V-CDBS-Containment", "V-Binary-Containment"},
		{"F-CDBS-Containment", "F-Binary-Containment"},
	}
	// V-CDBS-Prefix gives a parent's children as many two-byte UTF-8
	// components as DeweyID does, but not to the same children. A
	// child's component recurs in every label of its subtree, so where
	// a parent has over 127 children of unequal subtree sizes (D2, D4)
	// the totals part by a fraction of a percent.
	if dataset != "D2" && dataset != "D4" {
		equal = append(equal, [2]string{"V-CDBS-Prefix", "DeweyID(UTF8)-Prefix"})
	}
	for _, c := range equal {
		if per[c[0]] != per[c[1]] {
			t.Errorf("%s: %s %.4f != %s %.4f", dataset, c[0], per[c[0]], c[1], per[c[1]])
		}
	}
}

// TestPaperQueries checks the inputs of Table 3 and Figure 6: Table 3's
// six queries parse, and each of the ten schemes is registered.
func TestPaperQueries(t *testing.T) {
	if _, parsed := table3(t); len(parsed) != 6 {
		t.Fatalf("Table 3 has %d queries, want 6", len(parsed))
	}
	if len(paperSchemes) != 10 {
		t.Fatalf("%d schemes, want 10", len(paperSchemes))
	}
	for _, name := range paperSchemes {
		if _, err := registry.Lookup(name); err != nil {
			t.Error(err)
		}
	}
}

// TestPaperTable3 runs Table 3's queries over one copy of D5 under each
// scheme and checks that the schemes agree on every count. Table 3's D5
// is ten copies, and copies share one tree, so its counts are ten times
// these.
func TestPaperTable3(t *testing.T) {
	queries, parsed := table3(t)
	files := datagen.D5(1).Files
	counts := map[string][]int{}
	for _, name := range paperSchemes {
		c := corpus(t, name, files)
		counts[name] = make([]int, len(parsed))
		for qi, q := range parsed {
			n, err := c.Count(q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, queries[qi].ID, err)
			}
			counts[name][qi] = n
		}
	}
	ref := counts[paperSchemes[0]]
	for _, name := range paperSchemes[1:] {
		if !slices.Equal(counts[name], ref) {
			t.Errorf("%s counts %v, %s counts %v", name, counts[name], paperSchemes[0], ref)
		}
	}
	if ref[0] != 37 {
		t.Errorf("Q1 = %d, want 37", ref[0])
	}
	// Q5 and Q6 within 25% of a tenth of the paper's counts.
	for _, qi := range []int{4, 5} {
		got, want := float64(ref[qi]), float64(queries[qi].Paper)/10
		if got < want*0.75 || got > want*1.25 {
			t.Errorf("%s = %.0f, want within 25%% of %.0f", queries[qi].ID, got, want)
		}
	}
	rows := []string{"Query\tPath\tD5 x1\tD5 x10\tpaper (x10)\tchange"}
	for qi, q := range queries {
		rows = append(rows, fmt.Sprintf("%s\t%s\t%d\t%d\t%d\t%+.1f%%", q.ID, q.Path, ref[qi], 10*ref[qi], q.Paper,
			100*(float64(10*ref[qi])/float64(q.Paper)-1)))
	}
	logTable(t, "Table 3: nodes retrieved", rows)
}

// TestPaperFigure6 times Table 3's queries over one copy of D5 under
// each scheme. Each time is the least of three runs, in CPU time of
// this process, which other test binaries on the machine do not
// stretch the way they stretch the wall clock.
func TestPaperFigure6(t *testing.T) {
	queries, parsed := table3(t)
	files := datagen.D5(1).Files
	best := map[string][]time.Duration{}
	build := map[string]time.Duration{}
	heavy := map[string]time.Duration{} // Q4+Q5+Q6, where label work dominates
	for _, name := range paperSchemes {
		start := cpuTime()
		c := corpus(t, name, files)
		build[name] = cpuTime() - start
		best[name] = make([]time.Duration, len(parsed))
		for run := range 3 {
			var h time.Duration
			for qi, q := range parsed {
				start := cpuTime()
				_, err := c.Count(q)
				took := cpuTime() - start
				if err != nil {
					t.Fatalf("%s %s: %v", name, queries[qi].ID, err)
				}
				if run == 0 || took < best[name][qi] {
					best[name][qi] = took
				}
				if qi >= 3 {
					h += took
				}
			}
			if run == 0 || h < heavy[name] {
				heavy[name] = h
			}
		}
	}
	// Prime's big-integer arithmetic makes it far slower than the
	// others, Figure 6's headline; measured gaps are 4-30x.
	for _, other := range []string{"QED-Prefix", "OrdPath1-Prefix", "V-CDBS-Containment"} {
		if !(float64(heavy["Prime"]) > 1.5*float64(heavy[other])) {
			t.Errorf("Prime Q4-Q6 %v not clearly above %s %v", heavy["Prime"], other, heavy[other])
		}
	}
	// Section 7.2.2: QED-Prefix never pays ORDPATH's stage decoding on
	// Q6. The word-parallel ORDPATH comparator avoids decoding outside
	// the rare bit-prefix case too, so this is parity, not a win.
	if q, o := best["QED-Prefix"][5], best["OrdPath1-Prefix"][5]; !(float64(q) < 1.5*float64(o)) {
		t.Errorf("QED-Prefix Q6 %v materially above OrdPath1-Prefix %v", q, o)
	}
	rows := []string{"Scheme\tbuild\tQ1\tQ2\tQ3\tQ4\tQ5\tQ6"}
	for _, name := range paperSchemes {
		row := fmt.Sprintf("%s\t%.0f", name, ms(build[name]))
		for _, d := range best[name] {
			row += fmt.Sprintf("\t%.1f", ms(d))
		}
		rows = append(rows, row)
	}
	logTable(t, "Figure 6: query CPU time on D5 x1 (ms, least of 3; build once)", rows)
}

// table3 returns Table 3's queries and their parses.
func table3(t *testing.T) ([]datagen.Query, []*xpath.Query) {
	t.Helper()
	queries := datagen.Table3()
	parsed := make([]*xpath.Query, len(queries))
	for i, q := range queries {
		var err error
		if parsed[i], err = xpath.Parse(q.Path); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
	}
	return queries, parsed
}

// corpus labels files under the named scheme.
func corpus(t *testing.T, name string, files []*xmltree.Document) xpath.Corpus {
	t.Helper()
	entry, err := registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	c := make(xpath.Corpus, len(files))
	for i, f := range files {
		lab, err := entry.Build(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c[i], err = xpath.NewEngine(f, lab); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return c
}

// table4 is Table 4 by scheme: the existing nodes an insert before
// each of Hamlet's five acts re-labels (for Prime, the SC values it
// recomputes). The schemes it leaves out re-label nothing.
func table4() map[string][5]int {
	binary := datagen.HamletRelabelCounts()
	return map[string][5]int{
		"Prime":                {1320, 1025, 787, 487, 261},
		"V-Binary-Containment": binary,
		"F-Binary-Containment": binary,
	}
}

// TestPaperTable4 inserts an act before each of Hamlet's five acts
// under each scheme and checks Table 4's re-label counts exactly.
func TestPaperTable4(t *testing.T) {
	paper := table4()
	rows := []string{"Scheme\tcase1\tcase2\tcase3\tcase4\tcase5"}
	for _, name := range paperSchemes {
		var relabeled [5]int
		row := name
		for c := range 5 {
			doc, acts := hamletActs()
			var err error
			if _, relabeled[c], err = scheme.InsertSiblingBefore(buildLabeling(t, name, doc), acts[c]); err != nil {
				t.Fatalf("%s case %d: %v", name, c+1, err)
			}
			row += fmt.Sprintf("\t%d", relabeled[c])
		}
		if relabeled != paper[name] {
			t.Errorf("%s: re-labeled %v, want %v", name, relabeled, paper[name])
		}
		rows = append(rows, row)
	}
	logTable(t, "Table 4: nodes re-labeled, Hamlet, insert before act[i]", rows)
}

// TestPaperFigure7 times Table 4's inserts end to end: computing the
// labels, then writing one label per node the insert wrote and syncing
// the file once. A dynamic scheme writes one label; V-Binary writes
// 6 597 on case 1 and Prime 1 321 (1 320 recomputed SC values).
func TestPaperFigure7(t *testing.T) {
	paper := table4()
	dir := t.TempDir()
	rows := []string{"Scheme\tcase1\tcase2\tcase3\tcase4\tcase5\tlabel writes (case1)"}
	for si, name := range paperSchemes {
		var writes [5]int
		row := name
		for c := range 5 {
			var took time.Duration
			_, writes[c], took = insertBeforeAct(t, name, c, filepath.Join(dir, fmt.Sprintf("s%d-c%d.log", si, c)))
			row += fmt.Sprintf("\t%.2f", ms(took))
			// One label write against thousands.
			if want := paper[name][c] + 1; writes[c] != want {
				t.Errorf("%s case %d: %d label writes, want %d", name, c+1, writes[c], want)
			}
		}
		rows = append(rows, row+fmt.Sprintf("\t%d", writes[0]))
	}
	logTable(t, "Figure 7: update time, processing + I/O (ms)", rows)
}

// insertBeforeAct inserts an element before Hamlet's act[c+1] under the
// named scheme, appends the new label once per node the insert wrote
// (itself and each one re-labeled) to a file at path and syncs it. It
// returns the nodes re-labeled, the labels written and the time taken.
func insertBeforeAct(t *testing.T, name string, c int, path string) (relabeled, writes int, took time.Duration) {
	t.Helper()
	doc, acts := hamletActs()
	lab := buildLabeling(t, name, doc)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() // for the t.Fatal paths; the Close below is checked
	w := bufio.NewWriter(f)
	start := time.Now()
	id, relabeled, err := scheme.InsertSiblingBefore(lab, acts[c])
	if err != nil {
		t.Fatalf("%s case %d: %v", name, c+1, err)
	}
	label, err := lab.MarshalLabel(id)
	if err != nil {
		t.Fatal(err)
	}
	for ; writes <= relabeled; writes++ {
		if _, err := w.Write(label); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	took = time.Since(start)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return relabeled, writes, took
}

// TestPaperFrequentUpdates is Section 7.4: 2 000 inserts into Hamlet at
// random positions, then 2 000 into one fixed gap, timing the label
// computation alone (CPU time). Prime and the Binary schemes re-label
// on every insert and sit out, as in the paper.
func TestPaperFrequentUpdates(t *testing.T) {
	const inserts = 2000
	frequent := slices.DeleteFunc(slices.Clone(paperSchemes), func(name string) bool {
		return name == "Prime" || strings.HasSuffix(name, "Binary-Containment")
	})
	type result struct {
		name      string
		took      time.Duration
		relabeled int
	}
	for _, skewed := range []bool{false, true} {
		var results []result
		for _, name := range frequent {
			doc, acts := hamletActs()
			lab := buildLabeling(t, name, doc)
			rng := rand.New(rand.NewSource(42))
			r := result{name: name}
			start := cpuTime()
			for range inserts {
				var n int
				var err error
				if skewed {
					_, n, err = scheme.InsertSiblingBefore(lab, acts[2])
				} else {
					tr := lab.Tree()
					parent := rng.Intn(tr.Len())
					_, n, err = lab.InsertChildAt(parent, rng.Intn(len(tr.Kids(parent))+1))
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r.relabeled += n
			}
			r.took = cpuTime() - start
			results = append(results, r)
			// Float-point runs out of midpoints in one gap and re-labels
			// the document; CDBS, QED and ORDPATH never re-label.
			if skewed && name == "Float-point-Containment" {
				if r.relabeled == 0 {
					t.Errorf("%s never re-labeled under skew", name)
				}
			} else if r.relabeled != 0 {
				t.Errorf("%s re-labeled %d nodes (skewed %v)", name, r.relabeled, skewed)
			}
		}
		slices.SortFunc(results, func(a, b result) int { return cmp.Compare(a.took, b.took) })
		mode := "uniform"
		if skewed {
			mode = "skewed (one gap)"
		}
		rows := []string{"Scheme\ttotal (ms)\tper insert (us)\tre-labeled\tvs fastest"}
		for _, r := range results {
			rows = append(rows, fmt.Sprintf("%s\t%.1f\t%.2f\t%d\t%.1fx", r.name, ms(r.took),
				float64(r.took.Microseconds())/inserts, r.relabeled, float64(r.took)/float64(results[0].took)))
		}
		logTable(t, fmt.Sprintf("Section 7.4: %d %s inserts into Hamlet (CPU time)", inserts, mode), rows)
	}
}

// hamletActs returns Hamlet and the ids of its five act elements.
func hamletActs() (*xmltree.Document, []int) {
	doc := datagen.Hamlet()
	var acts []int
	for i, n := range doc.Nodes() {
		if n.Kind == xmltree.Element && n.Name == "act" && n.Parent == doc.Root {
			acts = append(acts, i)
		}
	}
	return doc, acts
}

func buildLabeling(t *testing.T, name string, doc *xmltree.Document) scheme.Labeling {
	t.Helper()
	entry, err := registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := entry.Build(doc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return lab
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// logTable logs tab-separated rows as an aligned table.
func logTable(t *testing.T, title string, rows []string) {
	t.Helper()
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
	_ = w.Flush()
	t.Logf("%s\n\n%s", title, b.String())
}
