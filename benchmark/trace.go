package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// rungID names one timed call into a layer's public entry point.
type rungID uint8

const (
	rClientQuery rungID = iota
	rWebQuery
	rCatalogQuery
	rHandleQuery
	rParse
	rConcurrentQuery
	rDocumentQuery
	rCacheEval
	rCacheHit
	rPlanEval
	rPlanRun
	rEngineEval
	rStoreIDs

	rClientEdit
	rWebEdit
	rCatalogEdit
	rHandleEdit
	rConcurrentEdit
	rClone
	rDocumentInsert
	rSchemeInsert
	rBetween
	rStoreAdd
	rJournalAppend
	rJournalEncode

	// Timed beside the ladder, on the same replay.
	rSchemeDelete
	rStoreRemove

	rungCount
)

type rungInfo struct {
	name  string // the entry point called
	layer string
	// metric is the per-layer metric the rung's median is printed
	// under; byClass appends .light / .heavy by the operation's query.
	metric  string
	byClass bool
}

var rungs = [rungCount]rungInfo{
	rClientQuery:     {"client.Doc.Query", "client", "client.query_rtt_us", false},
	rWebQuery:        {"web.Server.ServeHTTP(query)", "web", "web.query_handler_us", false},
	rCatalogQuery:    {"catalog.Acquire+QueryString+Release", "catalog", "", false},
	rHandleQuery:     {"dynxml.Handle.QueryString", "dynxml", "dynxml.handle_query_us", false},
	rParse:           {"xpath.Parse", "xpath", "xpath.parse_us", true},
	rConcurrentQuery: {"dyndoc.Concurrent.Query", "dyndoc", "dyndoc.snapshot_query_us", false},
	// A live document evaluates with the naive engine and nothing else,
	// so the rung's self time is the evaluation's.
	rDocumentQuery: {"dyndoc.Document.Query (xpath.Engine.Eval)", "xpath", "", false},
	rCacheEval:     {"plan.Cache.Eval", "plan", "", false},
	rCacheHit:      {"plan.Cache.Eval(unchanged generation)", "plan", "plan.cached_eval_us", true},
	rPlanEval:      {"plan.For+Plan.Eval", "plan", "plan.eval_us", true},
	rPlanRun:       {"plan.Plan.Eval", "plan", "", false},
	rEngineEval:    {"xpath.Engine.Eval", "xpath", "xpath.eval_us", true},
	rStoreIDs:      {"store.Backend.IDs", "store", "store.ids_us", false},

	rClientEdit:     {"client.Doc.InsertElement", "client", "client.edit_rtt_us", false},
	rWebEdit:        {"web.Server.ServeHTTP(edit)", "web", "web.edit_handler_us", false},
	rCatalogEdit:    {"catalog.Acquire+InsertElement+Release", "catalog", "", false},
	rHandleEdit:     {"dynxml.Handle.InsertElement", "dynxml", "dynxml.handle_edit_us", false},
	rConcurrentEdit: {"dyndoc.Concurrent.InsertElement", "dyndoc", "dyndoc.snapshot_edit_us", false},
	rClone:          {"dyndoc.Document.Clone", "dyndoc", "dyndoc.clone_us", false},
	rDocumentInsert: {"dyndoc.Document.InsertElement", "dyndoc", "dyndoc.insert_us", false},
	rSchemeInsert:   {"scheme.Labeling.InsertChildAt", "scheme", "scheme.insert_child_us", false},
	rBetween:        {"cdbs.Between x2", "cdbs", "", false},
	rStoreAdd:       {"store.Backend.Add", "store", "store.add_us", false},
	rJournalAppend:  {"journal.Journal.Append+wait", "journal", "journal.append_wait_us", false},
	rJournalEncode:  {"journal.EncodeBatch", "journal", "journal.encode_us", false},

	rSchemeDelete: {"scheme.Labeling.DeleteSubtree", "scheme", "scheme.delete_us", false},
	rStoreRemove:  {"store.Backend.Remove", "store", "store.remove_us", false},
}

// span is one timed call: which rung, which operation of the replayed
// stream (shared by every rung that replays it), whether that
// operation's query was heavy, and when, in ns since the tracer began.
type span struct {
	rung       rungID
	heavy      bool
	op         int32
	start, end int64
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil or switched-off tracer only runs the call.
type tracer struct {
	on    bool
	op    int
	heavy bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) do(r rungID, f func()) {
	if t == nil || !t.on {
		f()
		return
	}
	s := time.Now()
	f()
	e := time.Now()
	t.spans = append(t.spans, span{rung: r, heavy: t.heavy, op: int32(t.op), start: int64(s.Sub(t.t0)), end: int64(e.Sub(t.t0))})
}

// add records a span whose length was measured by the caller: time
// spent inside a call, gathered piece by piece.
func (t *tracer) add(r rungID, start time.Time, ns int64) {
	if t == nil || !t.on {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{rung: r, heavy: t.heavy, op: int32(t.op), start: s, end: s + ns})
}

// overheadNS is the median cost of an empty span: what timing itself
// adds to every rung, subtracted from rung medians.
func (t *tracer) overheadNS() float64 {
	probe := &tracer{on: true, t0: time.Now()}
	for i := 0; i < 20000; i++ {
		probe.do(rStoreIDs, func() {})
	}
	d := make([]float64, len(probe.spans))
	for i, s := range probe.spans {
		d[i] = float64(s.end - s.start)
	}
	return median(d)
}

// durations returns the span lengths of one rung in ns, optionally
// only those of light (heavy=false) or heavy queries.
func (t *tracer) durations(r rungID, class int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.rung != r {
			continue
		}
		if class == classLight && s.heavy || class == classHeavy && !s.heavy {
			continue
		}
		out = append(out, float64(s.end-s.start))
	}
	return out
}

const (
	classAll = iota
	classLight
	classHeavy
)

// writeSpans dumps every span as one JSON object per line: name,
// layer, start and end in ns, the rung that caused it, and the
// operation id spans of one request share.
func (t *tracer) writeSpans(path, workload string, parents map[rungID]rungID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			Workload string `json:"workload"`
			Name     string `json:"name"`
			Layer    string `json:"layer"`
			Parent   string `json:"parent,omitempty"`
			Op       int32  `json:"op"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
		}{Workload: workload, Name: rungs[s.rung].name, Layer: rungs[s.rung].layer, Op: s.op, Start: s.start, End: s.end}
		if p, ok := parents[s.rung]; ok {
			rec.Parent = rungs[p].name
		}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
