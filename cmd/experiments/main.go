// Command experiments regenerates the CDBS paper's evaluation: every
// table and figure of Section 7, the size analysis of Section 4.2 and
// the overflow ablation of Section 6, printing paper-style tables.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,table4
//	experiments -run figure6 -scale 10
//	experiments -run frequent -inserts 5000
//
// Absolute times differ from the paper's 2006 testbed; the shapes —
// who wins, by what factor, where the zeros fall — are the
// reproduction targets recorded in EXPERIMENTS.md.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	dynxml "repro"
	"repro/internal/bench"
	"repro/internal/journal"
	"repro/internal/metrics"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments: table1,sizes,figure5,figure6,table4,figure7,frequent,overflow,durable,follow")
	scale := flag.Int("scale", 10, "D5 replication factor for figure6 (the paper uses 10)")
	datasets := flag.String("datasets", "D1,D2,D3,D4,D5,D6", "datasets for figure5")
	inserts := flag.Int("inserts", 2000, "insertions for the frequent-update experiment")
	edits := flag.Int("edits", 400, "edits for the durable and follow experiments")
	metricsJSON := flag.String("metrics-json", "", "after the experiments run, dump the metrics registry as JSON to this file (- for stdout)")
	flag.Parse()

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	ran := false
	for _, exp := range []struct {
		name string
		fn   func() error
	}{
		{"table1", runTable1},
		{"sizes", runSizes},
		{"figure5", func() error { return runFigure5(strings.Split(*datasets, ",")) }},
		{"figure6", func() error { return runFigure6(*scale) }},
		{"table4", runTable4},
		{"figure7", runFigure7},
		{"frequent", func() error { return runFrequent(*inserts) }},
		{"overflow", runOverflow},
		{"durable", func() error { return runDurable(*edits) }},
		{"follow", func() error { return runFollow(*edits) }},
	} {
		if !all && !want[exp.name] {
			continue
		}
		ran = true
		if err := exp.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", exp.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: nothing selected by -run %q\n", *run)
		os.Exit(2)
	}
	if *metricsJSON != "" {
		if err := dumpMetrics(*metricsJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics-json: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpMetrics writes the process-wide metrics registry — segment-file
// I/O and recovery, cdbs/qed code-length and relabel histograms,
// dyndoc operation counters — as one JSON object.
func dumpMetrics(path string) error {
	if path == "-" {
		return metrics.Default.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.Default.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", path)
	return nil
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n\n", title)
}

func runTable1() error {
	header("Table 1 — Binary and CDBS encodings of 1..18")
	res, err := bench.Table1(18)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Number\tV-Binary\tV-CDBS\tF-Binary\tF-CDBS")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\n", r.Number, r.VBinary, r.VCDBS, r.FBinary, r.FCDBS)
	}
	fmt.Fprintf(w, "Total (bits)\t%d\t%d\t%d\t%d\n", res.VBinaryBits, res.VCDBSBits, res.FBinaryBits, res.FCDBSBits)
	return w.Flush()
}

func runSizes() error {
	header("Section 4.2 — size formulas vs measured totals (bits)")
	rows, err := bench.SizeFormulas([]int{18, 100, 1000, 10000, 100000, 1000000})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "N\tV code exact\tformula(2)\tV total exact\tformula(3)\tF total exact\tformula(5)\tQED total\tV-CDBS==V-Binary")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%d\t%.0f\t%d\t%.0f\t%d\t%v\n",
			r.N, r.ExactVCode, r.FormulaVCode, r.ExactVTotal, r.FormulaVTotal,
			r.ExactFTotal, r.FormulaFTotal, r.QEDTotal, r.MeasuredVMatch)
	}
	return w.Flush()
}

func runFigure5(datasets []string) error {
	header("Figure 5 — label sizes per scheme (bits per node)")
	rows, err := bench.Figure5(datasets, nil)
	if err != nil {
		return err
	}
	// Pivot: scheme rows, dataset columns.
	perScheme := map[string]map[string]float64{}
	var schemes []string
	for _, r := range rows {
		if perScheme[r.Scheme] == nil {
			perScheme[r.Scheme] = map[string]float64{}
			schemes = append(schemes, r.Scheme)
		}
		perScheme[r.Scheme][r.Dataset] = r.BitsPerNode
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Scheme\t%s\n", strings.Join(datasets, "\t"))
	for _, s := range schemes {
		var cells []string
		for _, d := range datasets {
			cells = append(cells, fmt.Sprintf("%.1f", perScheme[s][d]))
		}
		fmt.Fprintf(w, "%s\t%s\n", s, strings.Join(cells, "\t"))
	}
	return w.Flush()
}

func runFigure6(scale int) error {
	header(fmt.Sprintf("Table 3 / Figure 6 — query response time on D5 x%d (ms)", scale))
	rows, err := bench.Figure6(scale, nil)
	if err != nil {
		return err
	}
	queries := bench.Queries()
	counts := map[string]int{}
	perScheme := map[string]map[string]float64{}
	builds := map[string]float64{}
	var schemes []string
	for _, r := range rows {
		if perScheme[r.Scheme] == nil {
			perScheme[r.Scheme] = map[string]float64{}
			schemes = append(schemes, r.Scheme)
		}
		perScheme[r.Scheme][r.Query] = r.Millis
		counts[r.Query] = r.Matches
		if r.BuildMillis > 0 {
			builds[r.Scheme] = r.BuildMillis
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Query\tPath\tnodes retrieved\tpaper (x10)")
	paper := bench.PaperQueryCounts()
	for _, q := range queries {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\n", q.ID, q.Path, counts[q.ID], paper[q.ID])
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "Scheme\tbuild(ms)")
	for _, q := range queries {
		fmt.Fprintf(w, "\t%s", q.ID)
	}
	fmt.Fprintln(w)
	for _, s := range schemes {
		fmt.Fprintf(w, "%s\t%.0f", s, builds[s])
		for _, q := range queries {
			fmt.Fprintf(w, "\t%.1f", perScheme[s][q.ID])
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func runTable4() error {
	header("Table 4 — number of nodes to re-label in updates (Hamlet, insert before act[i])")
	rows, err := bench.Table4(nil)
	if err != nil {
		return err
	}
	paper := map[string][5]int{}
	for _, r := range bench.PaperTable4() {
		paper[r.Scheme] = r.Cases
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Scheme\tcase1\tcase2\tcase3\tcase4\tcase5\tpaper\tmatch")
	for _, r := range rows {
		p := paper[r.Scheme]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%v\t%v\n",
			r.Scheme, r.Cases[0], r.Cases[1], r.Cases[2], r.Cases[3], r.Cases[4], p, r.Cases == p)
	}
	return w.Flush()
}

func runFigure7() error {
	header("Figure 7 — total update time, processing + I/O (ms; figure plots log2)")
	rows, err := bench.Figure7(nil, "")
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Scheme\tcase1\tcase2\tcase3\tcase4\tcase5\tlog2(case1)\tlabel writes (case1)")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\t%d\n",
			r.Scheme, r.CaseMillis[0], r.CaseMillis[1], r.CaseMillis[2], r.CaseMillis[3], r.CaseMillis[4],
			r.Log2Millis[0], r.LabelWrites[0])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nlabelstore sync latency (s): %s\n",
		metrics.Default.Histogram("labelstore_sync_seconds", nil).Summary())
	return nil
}

func runFrequent(inserts int) error {
	for _, skewed := range []bool{false, true} {
		mode := "uniform"
		if skewed {
			mode = "skewed (fixed place)"
		}
		header(fmt.Sprintf("Section 7.4 — frequent updates, %d %s insertions (processing time)", inserts, mode))
		rows, err := bench.Frequent(nil, inserts, skewed, 42)
		if err != nil {
			return err
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].Millis < rows[j].Millis })
		base := math.Inf(1)
		for _, r := range rows {
			if r.Millis < base {
				base = r.Millis
			}
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Scheme\ttotal(ms)\tper insert(us)\trelabeled nodes\tvs fastest")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%d\t%.1fx\n", r.Scheme, r.Millis, r.MicrosPerOp, r.TotalRelabeled, r.Millis/base)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runDurable drives the PR 5 durable-document path end to end: a
// journaled handle per durability mode, 8 concurrent writers issuing
// insert+delete commits, then checkpoint, close and replay. The
// group-commit effect shows in the batches/sync column at "always" —
// without coalescing it would pin at 1.
func runDurable(edits int) error {
	const writers = 8
	rounds := edits / (2 * writers)
	if rounds < 1 {
		rounds = 1
	}
	commits := 2 * rounds * writers
	header(fmt.Sprintf("Durable documents — %d insert+delete commits, %d writers, per durability mode", commits, writers))
	appends := metrics.Default.Counter("journal_appends_total")
	syncs := metrics.Default.Counter("journal_group_commits_total")
	replayed := metrics.Default.Counter("journal_replayed_edits_total")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Durability\tcommits\ttotal(ms)\tus/commit\tgroup syncs\tbatches/sync\treplayed")
	for _, d := range []dynxml.Durability{dynxml.Always, dynxml.Interval(5 * time.Millisecond), dynxml.None} {
		dir, err := os.MkdirTemp("", "durable-")
		if err != nil {
			return err
		}
		h, err := dynxml.Open("<root><a></a><b></b></root>",
			dynxml.WithScheme("V-CDBS-Containment"), dynxml.WithJournal(dir), dynxml.WithDurability(d))
		if err != nil {
			return err
		}
		a0, s0 := appends.Value(), syncs.Value()
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					id, _, err := h.InsertElement(0, 0, "w")
					if err != nil {
						errs <- err
						return
					}
					if _, err := h.DeleteSubtree(id); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		elapsed := time.Since(start)
		if err := h.Checkpoint(); err != nil {
			return err
		}
		if err := h.Close(); err != nil {
			return err
		}
		r0 := replayed.Value()
		re, err := dynxml.Open(nil, dynxml.WithJournal(dir))
		if err != nil {
			return err
		}
		if n, err := re.Count("//a"); err != nil || n != 1 {
			return fmt.Errorf("durable: replay lost the document (count //a = %d, %v)", n, err)
		}
		if err := re.Close(); err != nil {
			return err
		}
		da, ds := appends.Value()-a0, syncs.Value()-s0
		perSync := "-"
		if ds > 0 {
			perSync = fmt.Sprintf("%.1f", float64(da)/float64(ds))
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.2f\t%d\t%s\t%d\n",
			d, commits, float64(elapsed.Microseconds())/1000, float64(elapsed.Microseconds())/float64(commits),
			ds, perSync, replayed.Value()-r0)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\njournal append latency (s): %s\n",
		metrics.Default.Histogram("journal_append_seconds", nil).Summary())
	return nil
}

// runFollow drives the PR 9 replication path end to end in-process:
// a journaled leader handle shipping encoded chunks to a follower
// (journal.OpenFollower over an in-process fetch, the transport the HTTP
// endpoint wraps), with a live watch subscription on the follower.
// Every leader write is timed from acknowledgement to visibility on
// the follower — the read-your-writes lag a client pays after
// FollowHorizon — and the ship/watch/follower metric families are
// exercised for the metrics smoke.
func runFollow(edits int) error {
	if edits < 2 {
		edits = 2
	}
	header(fmt.Sprintf("E13 — journal shipping to a follower, %d leader writes, write-to-visible lag", edits))

	dir, err := os.MkdirTemp("", "follow-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	leader, err := dynxml.Open("<root><a></a></root>", dynxml.WithJournal(dir))
	if err != nil {
		return err
	}
	defer func() { _ = leader.Close() }()
	roots, err := leader.QueryString("/root")
	if err != nil || len(roots) != 1 {
		return fmt.Errorf("follow: root query: %v %v", roots, err)
	}
	root := roots[0]

	// The follower mirrors into its own directory and replays encoded
	// chunks — the same persist-then-advance contract the HTTP follower
	// uses, minus the socket.
	mirror, err := os.MkdirTemp("", "follow-mirror-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(mirror) }()
	f, err := journal.OpenFollower(journal.FollowerConfig{
		Dir:      mirror,
		Interval: 2 * time.Millisecond,
		MaxBatch: 64,
		Fetch: func(from uint64, max int) (*journal.ShipChunk, error) {
			raw, err := leader.Ship(from, max)
			if err != nil {
				return nil, err
			}
			return journal.DecodeShipStream(bytes.NewReader(raw), from)
		},
	})
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()

	watchCh, cancelWatch, err := f.Doc().Watch("/root/w")
	if err != nil {
		return err
	}
	defer cancelWatch()

	lags := make([]time.Duration, 0, edits)
	var notified int
	start := time.Now()
	for i := 0; i < edits; i++ {
		id, _, err := leader.InsertElement(root, 0, "w")
		if err != nil {
			return err
		}
		seq := leader.Stats().Journal.Seq
		t0 := time.Now()
		if _, ok := f.WaitHorizon(seq, 30*time.Second); !ok {
			return fmt.Errorf("follow: horizon %d never reached", seq)
		}
		lags = append(lags, time.Since(t0))
		if i%2 == 1 {
			if _, err := leader.DeleteSubtree(id); err != nil {
				return err
			}
		}
	}
	total := time.Since(start)
	// Wait for the coalescing delivery loop to publish at least one
	// notification, then drain whatever else is already buffered.
	select {
	case <-watchCh:
		notified++
	case <-time.After(2 * time.Second):
	}
	for drained := false; !drained; {
		select {
		case <-watchCh:
			notified++
		default:
			drained = true
		}
	}

	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	pct := func(p float64) time.Duration { return lags[int(p*float64(len(lags)-1))] }
	st := f.Stats()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "writes\ttotal(ms)\tlag p50\tlag p95\tlag max\tpolls\tbatches applied\tresets\tnotifications")
	fmt.Fprintf(w, "%d\t%.1f\t%s\t%s\t%s\t%d\t%d\t%d\t%d\n",
		edits, float64(total.Microseconds())/1000, pct(0.50), pct(0.95), lags[len(lags)-1],
		st.Polls, st.Batches, st.Resets, notified)
	if err := w.Flush(); err != nil {
		return err
	}
	if notified == 0 {
		return fmt.Errorf("follow: watch on the follower never fired")
	}
	fmt.Printf("\nship: %d requests, %d batches, %d snapshot(s), %d bytes; follower lag now %.0f seqs\n",
		metrics.Default.Counter("journal_ship_requests_total").Value(),
		metrics.Default.Counter("journal_ship_batches_total").Value(),
		metrics.Default.Counter("journal_ship_snapshots_total").Value(),
		metrics.Default.Counter("journal_ship_bytes_total").Value(),
		metrics.Default.Gauge("follower_lag_seqs").Value())
	return nil
}

func runOverflow() error {
	header("Section 6 ablation — overflow under skewed insertion (CDBS order list, N=64)")
	rows, err := bench.Overflow(64, 2000)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Variant\tPolicy\tinserts\trelabel events\tcodes rewritten\twiden events\tfinal bits")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Variant, r.Policy, r.Inserts, r.RelabelEvents, r.CodesRewritten, r.WidenEvents, r.FinalBits)
	}
	return w.Flush()
}
