package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	dynxml "repro"
	"repro/internal/cdbs"
	"repro/internal/keys"
	"repro/internal/qed"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// sink keeps the results of timed calls alive so that the compiler
// cannot drop the calls.
var sink int

// timeUS runs f n times and returns the median duration in us.
func timeUS(n int, f func() error) (float64, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(t0))/1e3)
	}
	return median(d), nil
}

// kernelNS times a nanosecond-scale kernel over the recorded gaps with
// one clock read per sweep, not per call, and returns ns per call.
func kernelNS(gaps int, sweep func() error) (float64, error) {
	if gaps == 0 {
		return 0, nil
	}
	var per []float64
	for rep := 0; rep < 15; rep++ {
		t0 := time.Now()
		if err := sweep(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(gaps))
	}
	return median(per), nil
}

// labelStack is a labeling alone, under any containment codec: enough
// to find which neighbour codes the replayed inserts land between.
type labelStack struct {
	lab  scheme.Labeling
	keys keyed
	gaps [][2]keys.Key
}

func newLabelStack(schemeName string, tmpl *template) (*labelStack, error) {
	entry, err := registry.Lookup(schemeName)
	if err != nil {
		return nil, err
	}
	lab, err := entry.Build(tmpl.fresh())
	if err != nil {
		return nil, err
	}
	k, ok := lab.(keyed)
	if !ok {
		return nil, fmt.Errorf("scheme %s does not expose its endpoint keys", schemeName)
	}
	return &labelStack{lab: lab, keys: k}, nil
}

func (s *labelStack) query(int, *querySpec) ([]int, error) { return nil, nil }

func (s *labelStack) insert(_, parent, pos int) (int, int, error) {
	l, r := gapKeys(s.lab, s.keys, parent, pos)
	s.gaps = append(s.gaps, [2]keys.Key{l, r})
	return s.lab.InsertChildAt(parent, pos)
}

func (s *labelStack) remove(_, id int) error {
	_, err := s.lab.DeleteSubtree(id)
	return err
}

func (s *labelStack) close() error { return nil }

// layerMetrics measures what the ladder's rungs do not: kernels by the
// sweep, bulk costs per thousand nodes, clones, and the journal's and
// catalog's cold paths. It uses the copies of the system the ladder
// kept, in the state the replay left them.
func (pl *ladderPlan) layerMetrics(dir string, kept map[string]stack, m metricSet) error {
	tmpl := pl.spec.tmpl

	// cdbs, bitstr: the neighbour codes the replayed inserts hit.
	cw, ok := kept["labels"].(*compositeStack)
	if !ok {
		return errors.New("ladder kept no labels rung")
	}
	if ce, ok := kept["engine"].(*compositeStack); ok {
		pl.buildMetrics(ce, m)
	}
	var err error
	if m["cdbs.between_ns"], err = kernelNS(len(cw.gaps), func() error {
		for _, g := range cw.gaps {
			c, err := cdbs.Between(g[0], g[1])
			if err != nil {
				return err
			}
			sink += c.Len()
		}
		return nil
	}); err != nil {
		return err
	}
	if m["bitstr.compare_ns"], err = kernelNS(len(cw.gaps), func() error {
		for _, g := range cw.gaps {
			sink += g[0].Compare(g[1])
		}
		return nil
	}); err != nil {
		return err
	}
	// qed: the same inserts under QED-Containment.
	if err := pl.qedBetween(m); err != nil {
		return err
	}

	// Bulk costs per thousand nodes: encoding (a containment labeling
	// encodes two endpoints per node), serializing and parsing the
	// template.
	var text string
	for _, bulk := range []struct {
		metric string
		f      func() error
	}{
		{"cdbs.encode_us_per_knode", func() error {
			codes, err := cdbs.Encode(2 * tmpl.elements)
			sink += len(codes)
			return err
		}},
		{"xmltree.serialize_us_per_knode", func() error { text = tmpl.fresh().String(); return nil }},
		{"xmltree.parse_us_per_knode", func() error {
			doc, err := xmltree.ParseString(text)
			if err == nil {
				sink += doc.Len()
			}
			return err
		}},
	} {
		us, err := timeUS(5, bulk.f)
		if err != nil {
			return err
		}
		m[bulk.metric] = us / float64(tmpl.elements) * 1000
	}

	// scheme and store on the first document of the labels rung.
	cd := cw.docs[0]
	frag := speechFragment()
	parents := cd.idx.IDs(tmpl.parentName)
	if len(parents) == 0 {
		return errors.New("labels rung has no editable parent")
	}
	at := 0
	if m["scheme.insert_subtree_us"], err = timeUS(200, func() error {
		_, relabeled, err := cd.lab.InsertSubtree(parents[at%len(parents)], 0, frag)
		at++
		if err == nil && relabeled > 0 {
			err = fmt.Errorf("InsertSubtree re-labelled %d nodes", relabeled)
		}
		return err
	}); err != nil {
		return err
	}
	cloner, ok := cd.lab.(scheme.Cloner)
	if !ok {
		return errors.New("labeling cannot clone")
	}
	if m["scheme.clone_us"], err = timeUS(11, func() error {
		sink += cloner.CloneLabeling().Len()
		return nil
	}); err != nil {
		return err
	}
	b := store.Binding{Before: cd.lab.Before}
	if ol, ok := cd.lab.(scheme.OrderedLabeler); ok {
		b.Key = ol.AppendOrderedLabel
	}
	ss, ok := kept["store"].(*storeStack)
	if !ok {
		return errors.New("ladder kept no store rung")
	}
	idx := ss.ds[0].Store()
	if m["store.clone_us"], err = timeUS(11, func() error {
		cl, err := idx.Clone(b)
		if err != nil {
			return err
		}
		// A clone is not closed: a paged clone shares its original's
		// pager, and a slice clone holds nothing to release.
		sink += cl.Entries()
		return nil
	}); err != nil {
		return err
	}
	if n := idx.Entries(); n > 0 {
		m["store.footprint_bytes_per_node"] = float64(idx.MemoryFootprint()) / float64(n)
	}

	// dyndoc: what one clone allocates.
	if ds, ok := kept["document"].(*documentStack); ok {
		const clones = 8
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < clones; i++ {
			cl, err := ds.ds[0].Clone()
			if err != nil {
				return err
			}
			sink += cl.Len()
		}
		runtime.ReadMemStats(&m1)
		m["dyndoc.clone_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / clones
	}

	if pl.server {
		if err := pl.catalogMetrics(kept, m); err != nil {
			return err
		}
		if err := pl.journalMetrics(filepath.Join(dir, "handle"), kept, m); err != nil {
			return err
		}
	}
	return nil
}

func (pl *ladderPlan) qedBetween(m metricSet) error {
	ls, err := newLabelStack("QED-Containment", pl.spec.tmpl)
	if err != nil {
		return err
	}
	// The replay binds parents through a query; a bare labeling has
	// none to answer, so bind them from the structural mirror: element
	// ids are document order, as are the template's parents.
	st := newEditState(1, pl.fifoCap, len(pl.spec.queries))
	var ids []int
	for id, n := range pl.spec.tmpl.fresh().Nodes() {
		if n.Name == pl.spec.tmpl.parentName {
			ids = append(ids, id)
		}
	}
	if err := st.bindParents(0, ids, pl.spec.tmpl.parents, 0, 1); err != nil {
		return err
	}
	gen := newMixGen(streamSeed(pl.seed, 0, 3), 1, 1, 0, pl.spec.queries)
	gen.skewShare = pl.skewShare
	for inserts := 0; inserts < pl.edits; {
		o := gen.next()
		o.doc = 0
		if st.isInsert(0) {
			inserts++
		}
		if err := st.edit(ls, o); err != nil {
			return err
		}
	}
	m["qed.between_ns"], err = kernelNS(len(ls.gaps), func() error {
		for _, g := range ls.gaps {
			l, lok := g[0].(qed.Code)
			r, rok := g[1].(qed.Code)
			if !lok || !rok {
				return errors.New("endpoint keys are not QED codes")
			}
			c, err := qed.Between(l, r)
			if err != nil {
				return err
			}
			sink += c.Len()
		}
		return nil
	})
	return err
}

// catalogMetrics times a resident pin and release, and a cold open:
// Evict, then Acquire through journal replay.
func (pl *ladderPlan) catalogMetrics(kept map[string]stack, m metricSet) error {
	cs, ok := kept["catalog"].(*catalogStack)
	if !ok {
		return errors.New("ladder kept no catalog rung")
	}
	name := docName(0)
	var err error
	if m["catalog.acquire_us"], err = timeUS(2000, func() error {
		pin, err := cs.cat.Acquire(name)
		if err != nil {
			return err
		}
		pin.Release()
		return nil
	}); err != nil {
		return err
	}
	var cold []float64
	for i := 0; i < 5; i++ {
		if err := cs.cat.Evict(name); err != nil {
			return err
		}
		t0 := time.Now()
		pin, err := cs.cat.Acquire(name)
		if err != nil {
			return err
		}
		cold = append(cold, float64(time.Since(t0))/1e6)
		pin.Release()
	}
	m["catalog.cold_open_ms"] = median(cold)
	return nil
}

// journalMetrics closes the journaled handle the ladder drove and
// re-opens it twice: once replaying the log tail the ladder wrote,
// once — after a checkpoint — replaying none. The difference, per
// thousand edits, is the replay cost of an edit.
func (pl *ladderPlan) journalMetrics(dir string, kept map[string]stack, m metricSet) error {
	hs, ok := kept["handle"].(*handleStack)
	if !ok {
		return errors.New("ladder kept no handle rung")
	}
	h := hs.hs[0]
	edits := float64(h.Stats().Journal.Appended)
	if err := h.Close(); err != nil {
		return err
	}
	jdir := filepath.Join(dir, docName(0))
	reopen := func() (*dynxml.Handle, float64, error) {
		t0 := time.Now()
		h, err := dynxml.Open(nil, dynxml.WithJournal(jdir), dynxml.WithDurability(pl.spec.durability()), dynxml.WithRecover())
		return h, float64(time.Since(t0)) / 1e3, err
	}
	h, withTail, err := reopen()
	if err != nil {
		return err
	}
	hs.hs[0] = h
	t0 := time.Now()
	if err := h.Checkpoint(); err != nil {
		return err
	}
	m["journal.checkpoint_ms"] = float64(time.Since(t0)) / 1e6
	if err := h.Close(); err != nil {
		return err
	}
	h, bare, err := reopen()
	if err != nil {
		return err
	}
	hs.hs[0] = h
	if edits > 0 && withTail > bare {
		m["journal.replay_us_per_kedit"] = (withTail - bare) / edits * 1000
	}
	return nil
}
