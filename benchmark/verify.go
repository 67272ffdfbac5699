package main

import (
	"fmt"
	"sort"
	"time"

	dynxml "repro"
	"repro/client"
	"repro/internal/bitstr"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// oracle answers queries the slow, independent way: a fresh parse of
// the system's final XML, labelled from scratch, evaluated by the
// naive engine.
type oracle struct {
	eng *xpath.Engine
}

func newOracle(xml string) (*oracle, error) {
	doc, err := xmltree.ParseString(xml)
	if err != nil {
		return nil, fmt.Errorf("final XML does not parse: %w", err)
	}
	entry, err := registry.Lookup(dynxml.DefaultScheme)
	if err != nil {
		return nil, err
	}
	lab, err := entry.Build(doc)
	if err != nil {
		return nil, err
	}
	eng, err := xpath.NewEngine(doc, lab)
	if err != nil {
		return nil, err
	}
	return &oracle{eng: eng}, nil
}

// names evaluates q and returns the element names of the answer in
// document order. Answers are compared by count and name sequence,
// never by id: the oracle's ids are its own.
func (o *oracle) names(q *xpath.Query) ([]string, error) {
	ids, err := o.eng.Eval(q)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = o.eng.NameOf(id)
	}
	return out, nil
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// systemNames turns the system's answer into names through the
// system's own id-to-name lookup.
func systemNames(h *dynxml.Handle, ids []int) ([]string, error) {
	out := make([]string, len(ids))
	for i, id := range ids {
		n, err := h.Name(id)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// verify checks the outputs of the instance against the oracle. It
// returns the number of acknowledged operations the mismatches cover.
func (in *mixedInstance) verify(hs []*dynxml.Handle, relabeled int64) (wrong int, err error) {
	survivors, err := mustQueries([]string{"//" + insertName}, nil)
	if err != nil {
		return 0, err
	}
	top := in.stacks[0]
	var clientRelabeled, edits int
	for d, h := range hs {
		or, err := newOracle(h.XML())
		if err != nil {
			return 0, err
		}
		for qi := range in.spec.queries {
			q := &in.spec.queries[qi]
			ids, err := top.query(d, q)
			if err != nil {
				return 0, err
			}
			got, err := systemNames(h, ids)
			if err != nil {
				return 0, err
			}
			want, err := or.names(q.parsed)
			if err != nil {
				return 0, err
			}
			if !sameNames(got, want) {
				printf("# verifier: %s doc %d %s: system answers %d nodes, oracle %d (or the names differ)\n", in.w.Name, d, q.path, len(got), len(want))
				for _, st := range in.states {
					wrong += st.queryOps[d][qi]
				}
			}
		}
		ids, err := top.query(d, &survivors[0])
		if err != nil {
			return 0, err
		}
		var expect, docEdits int
		for _, st := range in.states {
			expect += st.inserts[d] - st.deletes[d]
			docEdits += st.inserts[d] + st.deletes[d]
		}
		edits += docEdits
		if len(ids) != expect {
			printf("# verifier: %s doc %d: %d inserted elements survive, acknowledgments say %d\n", in.w.Name, d, len(ids), expect)
			wrong += docEdits
		}
	}
	for _, st := range in.states {
		clientRelabeled += st.relabeled
	}
	if relabeled != int64(clientRelabeled) {
		printf("# verifier: %s: handles report %d re-labelled nodes, acknowledgments %d\n", in.w.Name, relabeled, clientRelabeled)
		wrong += edits
	}
	return wrong, nil
}

// recover measures a cold re-open: Sync, close every document (the
// server checkpoints and evicts it), then open each again through
// journal replay until it answers its first query. The re-opened XML
// must be byte-equal to the XML before the close. Node ids do not
// survive this, so every client's edit state is dropped first.
func (in *mixedInstance) recover(m metricSet) (wrong int, err error) {
	cs, ok := in.stacks[0].(*clientStack)
	if !ok {
		return 0, fmt.Errorf("%s: recovery needs the typed client", in.w.Name)
	}
	before := make([]string, len(cs.docs))
	for d, doc := range cs.docs {
		if err := doc.Sync(); err != nil {
			return 0, err
		}
		if before[d], err = doc.XML(); err != nil {
			return 0, err
		}
	}
	edits := make([]int, len(cs.docs))
	for _, st := range in.states {
		for d := range edits {
			edits[d] += st.inserts[d] + st.deletes[d]
		}
	}
	in.states = nil
	for _, doc := range cs.docs {
		if err := doc.Close(); err != nil {
			return 0, err
		}
	}
	first := in.spec.queries[0].path
	t0 := time.Now()
	reopened := make([]*client.Doc, len(cs.docs))
	for d := range cs.docs {
		if reopened[d], err = cs.c.Open(docName(d)); err != nil {
			return 0, err
		}
		if _, err := reopened[d].Query(first); err != nil {
			return 0, err
		}
	}
	m["journal.recover_s"] = time.Since(t0).Seconds()
	for d, doc := range reopened {
		after, err := doc.XML()
		if err != nil {
			return 0, err
		}
		if after != before[d] {
			printf("# verifier: %s doc %d: XML after recovery differs from XML before the close\n", in.w.Name, d)
			wrong += edits[d]
		}
	}
	return wrong, nil
}

// codeLens gathers the lengths in bits of the endpoint codes of live
// nodes.
type codeLens struct {
	lens []int
}

func (c *codeLens) add(lab scheme.Labeling) {
	k, ok := lab.(keyed)
	if !ok {
		return
	}
	for _, id := range lab.Tree().PreOrder() {
		for _, key := range []any{k.StartKey(id), k.EndKey(id)} {
			if b, ok := key.(bitstr.BitString); ok {
				c.lens = append(c.lens, b.Len())
			}
		}
	}
}

func (c *codeLens) p50max() (p50, max float64) {
	if len(c.lens) == 0 {
		return 0, 0
	}
	sort.Ints(c.lens)
	return float64(c.lens[len(c.lens)/2]), float64(c.lens[len(c.lens)-1])
}

// counterMetrics turns the public-counter deltas of a phase into the
// per-operation count metrics.
func counterMetrics(p *phaseResult, m metricSet) {
	d := p.counterDelta
	ops := float64(p.ok())
	writes := float64(len(p.rec.writes.ns))
	ratio := func(hit, miss string) float64 {
		if t := d[hit] + d[miss]; t > 0 {
			return d[hit] / t
		}
		return 0
	}
	m["pagestore.cache_hit_ratio"] = ratio("pagestore_cache_hits", "pagestore_cache_misses")
	m["plan.result_hit_ratio"] = ratio("xpath_result_cache_hits_total", "xpath_result_cache_misses_total")
	m["plan.plan_hit_ratio"] = ratio("xpath_plan_cache_hits_total", "xpath_plan_cache_misses_total")
	if ops > 0 {
		m["pagestore.pages_read_per_op"] = d["pagestore_cache_misses"] / ops
		m["pagestore.writebacks_per_op"] = d["pagestore_writebacks"] / ops
		m["runtime.heap_growth_bytes_per_op"] = float64(p.heapGrowthBytes) / ops
	}
	if writes > 0 {
		m["journal.fsyncs_per_edit"] = d["labelstore_syncs_total"] / writes
		m["journal.bytes_per_edit"] = d["labelstore_bytes_total"] / writes
		m["scheme.relabels_per_kedit"] = d["dyndoc_relabeled_total"] / writes * 1000
	}
	if n := d["journal_group_commit_batches.count"]; n > 0 {
		m["journal.group_size_mean"] = d["journal_group_commit_batches.sum"] / n
	}
	m["runtime.num_gc"] = float64(p.numGC)
	m["runtime.gc_pause_total_ms"] = float64(p.gcPauseNS) / 1e6
}
