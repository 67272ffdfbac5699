package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// ladderPlan is the traced replay of one workload: a fixed number of
// reads and of inserts from a stream shaped like the workload's, run
// by one caller, once per rung. Every rung gets a fresh copy of the
// system up to that layer and replays the same operations on it, so
// the rungs see the same states; a span's operation id is the
// operation's index in the replay and is shared across rungs.
type ladderPlan struct {
	name   string
	spec   *sysSpec
	server bool
	seed   int64
	// The mix of the replayed stream.
	editShare, heavyShare, skewShare float64
	fifoCap                          int
	reads, edits                     int
	// editEvery interleaves one untimed edit per that many reads when
	// the stream itself holds none (a workload that paces its edits).
	editEvery int
}

// ladderTrace carries what the traced run shares across workloads.
type ladderTrace struct {
	tr *tracer
	// readP50US is the untraced phase's median read, the denominator
	// of trace.overhead_ratio.
	readP50US float64
	// parents names, for the span dump, the rung that wraps each rung
	// in the ladders printed.
	parents map[rungID]rungID
}

// replayer drives one rung's copy of the system through the plan's
// stream, a slice at a time. Spans are recorded only for the side the
// rung is timed on; the other side still runs, untimed, so that every
// rung passes through the same states.
type replayer struct {
	pl                    *ladderPlan
	label                 string
	s                     stack
	tr                    *tracer
	st                    *editState
	gen, edits            *mixGen
	timeReads, timeWrites bool
	reads, inserts, n     int
}

func (pl *ladderPlan) newReplayer(label string, s stack, tr *tracer, timeReads, timeWrites bool) (*replayer, error) {
	st, err := bindState(s, pl.spec, pl.fifoCap, 0, 1)
	if err != nil {
		return nil, err
	}
	r := &replayer{pl: pl, label: label, s: s, tr: tr, st: st, timeReads: timeReads, timeWrites: timeWrites}
	r.gen = newMixGen(streamSeed(pl.seed, 0, 2), pl.spec.docs, pl.editShare, pl.heavyShare, pl.spec.queries)
	r.gen.skewShare = pl.skewShare
	r.edits = r.gen
	if pl.editEvery > 0 {
		r.edits = newMixGen(streamSeed(pl.seed, 0, 3), pl.spec.docs, 1, 0, pl.spec.queries)
		r.edits.skewShare = pl.skewShare
	}
	return r, nil
}

func (r *replayer) apply(o op, timed bool, id int) error {
	r.tr.on, r.tr.op = timed, id
	r.tr.heavy = o.kind == opQuery && r.pl.spec.queries[o.query].heavy
	_, err := r.st.apply(r.s, o, r.pl.spec.queries)
	r.tr.on = false
	return err
}

// readSlice runs the stream until k more reads have been answered. The
// edits the stream holds between them — or, for a workload that paces
// its edits, one edit every editEvery reads — run untimed.
func (r *replayer) readSlice(k int) error {
	for until := r.reads + k; r.reads < until; {
		if every := r.pl.editEvery; every > 0 && r.reads%every == every-1 {
			if err := r.apply(r.edits.next(), false, 0); err != nil {
				return err
			}
		}
		o := r.gen.next()
		if o.kind != opQuery {
			if err := r.apply(o, false, 0); err != nil {
				return err
			}
			continue
		}
		if err := r.apply(o, r.timeReads, r.reads); err != nil {
			return err
		}
		r.reads++
	}
	return nil
}

// writeSlice runs the stream's edits until k more of them were
// inserts. The deletes between them run too; the rungs do not time
// them, except the labels rung, which times Remove and DeleteSubtree
// beside the ladder.
func (r *replayer) writeSlice(k int) error {
	for until := r.inserts + k; r.inserts < until; r.n++ {
		o := r.edits.next()
		if o.kind == opQuery {
			continue
		}
		if r.st.isInsert(o.doc) {
			r.inserts++
		}
		if err := r.apply(o, r.timeWrites, r.n); err != nil {
			return err
		}
	}
	return nil
}

// rungRun is one fresh copy of the system up to some layer.
type rungRun struct {
	label      string
	make       func(dir string) (stack, error)
	reads      bool
	writes     bool
	serverOnly bool
}

type ladderRow struct {
	rung   rungID
	parent int // index of the wrapping row, -1 for the outermost
}

var (
	serverReadLadder = []ladderRow{
		{rClientQuery, -1}, {rWebQuery, 0}, {rCatalogQuery, 1}, {rHandleQuery, 2},
		{rParse, 3}, {rConcurrentQuery, 3}, {rCacheEval, 5}, {rPlanRun, 6}, {rStoreIDs, 7},
	}
	serverWriteLadder = []ladderRow{
		{rClientEdit, -1}, {rWebEdit, 0}, {rCatalogEdit, 1}, {rHandleEdit, 2},
		{rConcurrentEdit, 3}, {rClone, 4}, {rDocumentInsert, 4}, {rSchemeInsert, 6}, {rBetween, 7}, {rStoreAdd, 6},
		{rJournalAppend, 3}, {rJournalEncode, 10},
	}
	embeddedReadLadder = []ladderRow{
		{rHandleQuery, -1}, {rParse, 0}, {rDocumentQuery, 0}, {rStoreIDs, 2},
	}
	embeddedWriteLadder = []ladderRow{
		{rHandleEdit, -1}, {rDocumentInsert, 0}, {rSchemeInsert, 1}, {rBetween, 2}, {rStoreAdd, 1},
	}
)

// replaySlices is how many slices the replay is cut into. The rungs
// take turns slice by slice, so that a slow spell of the machine falls
// on every rung alike instead of on whichever was replaying just then;
// a ladder whose rungs were replayed one after the other came out with
// wrapped rungs slower than their wrappers.
const replaySlices = 10

// run executes the whole traced replay and fills the per-layer
// metrics that come from it.
func (pl *ladderPlan) run(dir string, lt *ladderTrace, m metricSet) error {
	tr := lt.tr
	spec := pl.spec
	runs := []rungRun{
		{label: "store", reads: true, writes: true, make: func(d string) (stack, error) { return newStoreStack(d, spec, tr) }},
		{label: "engine", reads: true, make: func(d string) (stack, error) { return newCompositeStack(d, spec, modeEngine, tr) }},
		{label: "plan", reads: true, serverOnly: true, make: func(d string) (stack, error) { return newCompositeStack(d, spec, modePlan, tr) }},
		{label: "cache", reads: true, serverOnly: true, make: func(d string) (stack, error) { return newCompositeStack(d, spec, modeCache, tr) }},
		{label: "labels", writes: true, make: func(d string) (stack, error) { return newCompositeStack(d, spec, modeWrite, tr) }},
		{label: "document", reads: !pl.server, writes: true, make: func(d string) (stack, error) { return newDocumentStack(d, spec, pl.server, tr) }},
		{label: "snapshot", reads: true, writes: true, serverOnly: true, make: func(d string) (stack, error) { return newConcurrentStack(d, spec, tr) }},
		{label: "journal", writes: true, serverOnly: true, make: func(d string) (stack, error) { return newJournalStack(d, spec, tr) }},
		{label: "handle", reads: true, writes: true, make: func(d string) (stack, error) { return newHandleStack(d, spec, pl.server, tr) }},
		{label: "catalog", reads: true, writes: true, serverOnly: true, make: func(d string) (stack, error) { return newCatalogStack(d, spec, tr) }},
		{label: "web", reads: true, writes: true, serverOnly: true, make: func(d string) (stack, error) { return newWebStack(d, spec, tr) }},
	}
	kept := map[string]stack{}
	var srv *server
	defer func() {
		for _, s := range kept {
			_ = s.close()
		}
		if srv != nil {
			_ = srv.stop()
		}
	}()
	var replayers []*replayer
	add := func(label string, s stack, reads, writes bool) error {
		kept[label] = s
		r, err := pl.newReplayer(label, s, tr, reads, writes)
		if err != nil {
			return fmt.Errorf("%s ladder, %s rung: %w", pl.name, label, err)
		}
		replayers = append(replayers, r)
		return nil
	}
	for _, r := range runs {
		if r.serverOnly && !pl.server {
			continue
		}
		s, err := r.make(filepath.Join(dir, r.label))
		if err != nil {
			return fmt.Errorf("%s ladder, %s rung: %w", pl.name, r.label, err)
		}
		if err := add(r.label, s, r.reads, r.writes); err != nil {
			return err
		}
	}
	if pl.server {
		// The outermost rung: the typed client over loopback TCP against
		// a serving stack of its own.
		var err error
		if srv, err = startServer(filepath.Join(dir, "client"), spec.durability(), spec.docs); err != nil {
			return err
		}
		cs, err := newClientStack(srv, spec, true, tr)
		if err != nil {
			return err
		}
		if err := add("client", cs, true, true); err != nil {
			return err
		}
	}
	first := len(tr.spans)
	for _, side := range []struct {
		total int
		step  func(r *replayer, k int) error
	}{
		{pl.reads, (*replayer).readSlice},
		{pl.edits, (*replayer).writeSlice},
	} {
		for done := 0; done < side.total; {
			k := min(max(side.total/replaySlices, 1), side.total-done)
			for _, r := range replayers {
				if err := side.step(r, k); err != nil {
					return fmt.Errorf("%s ladder, %s rung: %w", pl.name, r.label, err)
				}
			}
			done += k
		}
	}
	if err := pl.layerMetrics(dir, kept, m); err != nil {
		return err
	}
	view := &tracer{spans: tr.spans[first:]}
	overhead := tr.overheadNS()
	med := func(r rungID, class int) float64 {
		if r == rBetween {
			// The rung is two Between calls, and a clock read costs more
			// than they do: the kernel sweep stands in for the spans.
			return 2 * m["cdbs.between_ns"] / 1e3
		}
		d := view.durations(r, class)
		if len(d) == 0 {
			return 0
		}
		if v := (median(d) - overhead) / 1e3; v > 0 {
			return v
		}
		return 0
	}
	for r := rungID(0); r < rungCount; r++ {
		info := rungs[r]
		if info.metric == "" {
			continue
		}
		if info.byClass {
			m[info.metric+".light"] = med(r, classLight)
			m[info.metric+".heavy"] = med(r, classHeavy)
		} else {
			m[info.metric] = med(r, classAll)
		}
	}
	readRows, writeRows := embeddedReadLadder, embeddedWriteLadder
	if pl.server {
		readRows, writeRows = serverReadLadder, serverWriteLadder
	}
	// The ladders add and subtract rungs, which only means do exactly:
	// where a rung's latencies fall into two clusters of like size (a
	// paged Add that hits the page cache or misses it) its median sits
	// on the edge between them and jumps from one replay to the next.
	// The ladder's figure for a rung is therefore the mean of the
	// middle four fifths of its spans.
	midMean := func(r rungID) float64 {
		if r == rBetween {
			return med(r, classAll)
		}
		if v := (trimmedMean(view.durations(r, classAll)) - overhead) / 1e3; v > 0 {
			return v
		}
		return 0
	}
	printLadder(pl.name, "read", readRows, pl.reads, midMean, lt, m)
	printLadder(pl.name, "write", writeRows, pl.edits, midMean, lt, m)
	if pl.server {
		m["client.transport_self_us"] = max(0, med(rClientQuery, classAll)-med(rWebQuery, classAll))
		if w, ok := kept["web"].(*webStack); ok && w.reads > 0 {
			m["web.resp_bytes_per_read"] = float64(w.respBytes) / float64(w.reads)
		}
	}
	if lt.readP50US > 0 {
		raw := view.durations(readRows[0].rung, classAll)
		m["trace.overhead_ratio"] = median(raw) / 1e3 / lt.readP50US
	}
	return nil
}

// buildMetrics reports what constructing a composite cost.
func (pl *ladderPlan) buildMetrics(c *compositeStack, m metricSet) {
	if c.built == 0 {
		return
	}
	k := float64(c.built) / 1000
	m["scheme.build_us_per_knode"] = float64(c.schemeBuildNS) / 1e3 / k
	m["store.build_us_per_knode"] = float64(c.storeBuildNS) / 1e3 / k
}

// offPathFactor is how much slower than its wrapper a wrapped rung
// must be before it counts as off the median path rather than as
// measurement noise between two separately replayed rungs.
const offPathFactor = 2

// printLadder prints one ladder and records each layer's self time. A
// rung's self time is its figure less the figures of the rungs it
// wraps. A wrapped rung far slower than its wrapper is one the usual
// operation does not reach — the evaluation behind a result-cache hit —
// and is listed, marked, outside the sum.
func printLadder(workload, side string, rows []ladderRow, n int, med func(rungID) float64, lt *ladderTrace, m metricSet) {
	meds := make([]float64, len(rows))
	onPath := make([]bool, len(rows))
	depth := make([]int, len(rows))
	for i, row := range rows {
		meds[i] = med(row.rung)
		if row.parent < 0 {
			onPath[i] = true
			continue
		}
		lt.parents[row.rung] = rows[row.parent].rung
		depth[i] = depth[row.parent] + 1
		onPath[i] = onPath[row.parent] && meds[i] <= offPathFactor*meds[row.parent]
	}
	self := append([]float64(nil), meds...)
	for i, row := range rows {
		if row.parent >= 0 && onPath[i] {
			self[row.parent] -= meds[i]
		}
	}
	byLayer := map[string]float64{}
	var sum float64
	printf("\n%s ladder, %s (us, mean of the middle four fifths of %d operations, one caller)\n", side, workload, n)
	printf("  %-46s %-8s %12s %12s\n", "rung", "layer", "rung_us", "self_us")
	for i, row := range rows {
		info := rungs[row.rung]
		name := strings.Repeat("  ", depth[i]) + info.name
		if !onPath[i] {
			printf("  %-46s %-8s %12.3f %12s\n", name, info.layer, meds[i], "(off path)")
			continue
		}
		if self[i] < 0 {
			self[i] = 0
		}
		sum += self[i]
		byLayer[info.layer] += self[i]
		printf("  %-46s %-8s %12.3f %12.3f\n", name, info.layer, meds[i], self[i])
	}
	printf("  self times sum to %.3f us; the outermost rung is %.3f us\n", sum, meds[0])
	for layer, v := range byLayer {
		m["self."+side+"."+layer+"_us"] = v
	}
}
