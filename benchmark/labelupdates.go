package main

import (
	"fmt"
	"math/rand"
	"time"

	dynxml "repro"
	"repro/internal/xmltree"
)

// The label-updates round, after the paper's update experiment on the
// Hamlet file (Table 4, Figure 7, section 6).
const (
	luUniform = 3000 // InsertElement at uniform positions (uniformly frequent updates)
	luSkewed  = 1500 // InsertElement at one fixed gap (skewed insertion)
	luTrees   = 300  // InsertTree of the 5-node fragment, then as many DeleteSubtree

	luQueryPasses = 2 // times Q1-Q5 run at the end of a round
)

// labelUpdates drives an embedded live handle through rounds of one
// seeded script: a fresh Open (Algorithm 2 bulk labelling), the
// inserts and deletes above, then Q1-Q5 twice each — reads that compare
// the labels the round just grew. Every round replays the same script,
// so the state at the end of a round is a function of the seed alone.
type labelUpdates struct {
	workloadDef
	smoke bool
}

func newLabelUpdates(smoke bool) *labelUpdates { return &labelUpdates{workloadDefs[3], smoke} }

func (w *labelUpdates) def() workloadDef { return w.workloadDef }

// phaseOps is 20 whole rounds, two in a smoke run.
func (w *labelUpdates) phaseOps() int {
	round := luUniform + luSkewed + 2*luTrees + luQueryPasses*(len(hamletLight)+len(hamletHeavy))
	return sized(w.smoke, 20, 2) * round
}

func (w *labelUpdates) spec() (*sysSpec, error) {
	qs, err := mustQueries(hamletLight, hamletHeavy)
	if err != nil {
		return nil, err
	}
	return &sysSpec{tmpl: hamletTemplate(), docs: 1, queries: qs}, nil
}

// script is one round.
func (w *labelUpdates) script(seed int64, spec *sysSpec) []op {
	rng := rand.New(rand.NewSource(streamSeed(seed, 0, 0)))
	shapes := len(spec.queries)
	ops := []op{{kind: opOpen}}
	for i := 0; i < luUniform; i++ {
		ops = append(ops, op{kind: opEdit, parent: rng.Uint32(), pos: rng.Uint32()})
	}
	// The fixed gap is under the middle speech of the document whatever
	// the seed: an insert into the slice index shifts everything behind
	// it, so a gap drawn from the seed made the cost of these 1 500
	// inserts, and with it client.write_p50_us, differ by a sixth from
	// seed to seed.
	gap := uint32(len(spec.tmpl.parents) / 2)
	for i := 0; i < luSkewed; i++ {
		ops = append(ops, op{kind: opInsertSkew, parent: gap})
	}
	for i := 0; i < luTrees; i++ {
		ops = append(ops, op{kind: opInsertTree, parent: rng.Uint32(), pos: rng.Uint32()})
	}
	for i := luTrees; i > 0; i-- {
		// pos picks which of the i surviving fragments goes.
		ops = append(ops, op{kind: opDeleteTree, pos: uint32(rng.Intn(i))})
	}
	// Q1-Q5, twice over: ten reads a round give every window of a phase
	// two hundred read latencies to take a median of.
	for q := 0; q < luQueryPasses*shapes; q++ {
		ops = append(ops, op{kind: opQuery, query: q % shapes})
	}
	return ops
}

func (w *labelUpdates) streamHash(seed int64) (uint64, error) {
	spec, err := w.spec()
	if err != nil {
		return 0, err
	}
	return hashOps(w.script(seed, spec)), nil
}

// ladder replays a mixed stream shaped like a round: uniform and
// fixed-gap inserts in the round's two-to-one proportion, and Q1-Q5.
func (w *labelUpdates) ladder(seed int64, dir string, lt *ladderTrace, m metricSet) error {
	spec, err := w.spec()
	if err != nil {
		return err
	}
	pl := &ladderPlan{
		name: w.Name, spec: spec, seed: seed,
		editShare: 0.5, heavyShare: 0.4, skewShare: float64(luSkewed) / float64(luUniform+luSkewed), fifoCap: 64,
		reads: sized(w.smoke, 2000, 200), edits: sized(w.smoke, 2000, 50),
	}
	return pl.run(dir, lt, m)
}

type luInstance struct {
	w      *labelUpdates
	spec   *sysSpec
	script []op
	frag   *xmltree.Node
	speech []querySpec

	h       *dynxml.Handle
	parents []parentSlot
	trees   []int // root ids of surviving fragments
	next    int   // position in the script

	rec  *recorder
	errs errorLog
	// Per round of the measured phase: the answer sizes of Q1-Q5, which
	// must all equal the verification round's.
	answers [][]int
	round   []int
	// What the system acknowledged, over the instance.
	relabeled int
	reads     []int // answered queries by shape
	edits     int
}

func (w *labelUpdates) setup(seed int64, _ string) (instance, error) {
	spec, err := w.spec()
	if err != nil {
		return nil, err
	}
	speech, err := mustQueries([]string{"//" + spec.tmpl.parentName}, nil)
	if err != nil {
		return nil, err
	}
	in := &luInstance{
		w: w, spec: spec, script: w.script(seed, spec), frag: speechFragment(), speech: speech,
		rec:   newRecorder(w.phaseOps()/100, w.phaseOps()),
		reads: make([]int, len(spec.queries)),
	}
	warm := newRecorder(0, 0)
	in.drive(warm, time.Time{}, warmupOps)
	if warm.failed > 0 {
		_ = in.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up operations failed: %v", w.Name, warm.failed, warm.attempted, in.errs.msgs)
	}
	return in, nil
}

// open is the round's opOpen: drop the previous document with every id
// held from it, label a fresh copy, and ask it for its parents.
func (in *luInstance) open() error {
	if in.h != nil {
		if err := in.h.Close(); err != nil {
			return err
		}
	}
	h, err := dynxml.Open(in.spec.tmpl.fresh())
	if err != nil {
		return err
	}
	in.h = h
	ids, err := h.QueryString(in.speech[0].path)
	if err != nil {
		return err
	}
	shapes := in.spec.tmpl.parents
	if len(ids) != len(shapes) {
		return fmt.Errorf("system reports %d editable parents, template has %d", len(ids), len(shapes))
	}
	in.parents = in.parents[:0]
	for i, id := range ids {
		in.parents = append(in.parents, parentSlot{id: id, children: shapes[i].children})
	}
	in.trees = in.trees[:0]
	in.round = in.round[:0]
	return nil
}

// exec runs one scripted operation and reports whether it was a write.
func (in *luInstance) exec(o op) (write bool, err error) {
	noRelabel := func(relabeled int) error {
		in.relabeled += relabeled
		if relabeled > 0 {
			return fmt.Errorf("insert re-labelled %d existing nodes", relabeled)
		}
		return nil
	}
	switch o.kind {
	case opEdit, opInsertSkew:
		p := &in.parents[int(o.parent%uint32(len(in.parents)))]
		pos := int(o.pos % uint32(p.children+1))
		if o.kind == opInsertSkew {
			// One fixed gap: behind the parent's first child, in front
			// of everything inserted there before.
			pos = 1
		}
		_, relabeled, err := in.h.InsertElement(p.id, pos, insertName)
		if err != nil {
			return true, err
		}
		p.children++
		in.edits++
		return true, noRelabel(relabeled)
	case opInsertTree:
		p := &in.parents[int(o.parent%uint32(len(in.parents)))]
		ids, relabeled, err := in.h.InsertTree(p.id, int(o.pos%uint32(p.children+1)), in.frag)
		if err != nil {
			return true, err
		}
		p.children++
		in.trees = append(in.trees, ids[0])
		in.edits++
		return true, noRelabel(relabeled)
	case opDeleteTree:
		i := int(o.pos) % len(in.trees)
		if _, err := in.h.DeleteSubtree(in.trees[i]); err != nil {
			return true, err
		}
		// The parents' child counts are not needed again this round:
		// deletes come after the last insert.
		in.trees = append(in.trees[:i], in.trees[i+1:]...)
		in.edits++
		return true, nil
	case opQuery:
		ids, err := in.h.QueryString(in.spec.queries[o.query].path)
		if err != nil {
			return false, err
		}
		in.reads[o.query]++
		in.round = append(in.round, len(ids))
		return false, nil
	default:
		return false, fmt.Errorf("op kind %d outside a label-updates round", o.kind)
	}
}

// drive is the single closed-loop caller. It stops after ops
// operations, or at the deadline (when one is set) if that comes first.
// The fresh Open that starts a round is paid inside the loop but is not
// itself an operation: it shows in ops_per_s, not in a latency.
func (in *luInstance) drive(rec *recorder, deadline time.Time, ops int) {
	last := time.Now()
	for n := 0; n < ops; {
		if !deadline.IsZero() && !last.Before(deadline) {
			return
		}
		o := in.script[in.next]
		in.next = (in.next + 1) % len(in.script)
		if o.kind == opOpen {
			if len(in.round) == luQueryPasses*len(in.spec.queries) {
				in.answers = append(in.answers, append([]int(nil), in.round...))
			}
			if err := in.open(); err != nil {
				// Without a document nothing further can run.
				rec.done(true, time.Time{}, time.Time{}, err)
				in.errs.add(err)
				return
			}
			continue
		}
		t0 := time.Now()
		write, err := in.exec(o)
		last = time.Now()
		rec.done(write, t0, last, err)
		if err != nil {
			in.errs.add(err)
		}
		n++
	}
}

func (in *luInstance) run(length time.Duration) (*phaseResult, error) {
	in.answers = nil
	p, err := measure(length, []*recorder{in.rec}, func(_ int, rec *recorder, deadline time.Time) {
		in.drive(rec, deadline, in.w.phaseOps())
	})
	if err != nil {
		return nil, err
	}
	p.errs = in.errs.msgs
	return p, nil
}

// finish replays one whole round outside the timed region on a fresh
// document and checks it — and, through the recorded answer sizes,
// every timed round — against the oracle.
func (in *luInstance) finish(p *phaseResult, m metricSet) (wrong int, err error) {
	timedReads, timedEdits := append([]int(nil), in.reads...), in.edits
	timedRelabeled := in.relabeled
	in.next = 0
	check := newRecorder(0, 0)
	in.drive(check, time.Time{}, len(in.script)-1)
	if check.failed > 0 {
		return 0, fmt.Errorf("%s: verification round: %d operations failed: %v", in.w.Name, check.failed, in.errs.msgs)
	}
	h := in.h
	m["label_bytes_per_node"] = float64(h.Labeling().TotalLabelBits()) / 8 / float64(h.Len())
	var lens codeLens
	lens.add(h.Labeling())
	m["cdbs.code_len_bits_p50"], m["cdbs.code_len_bits_max"] = lens.p50max()
	m["pagestore.allocated_pages"] = float64(h.Stats().Storage.AllocatedPages)
	counterMetrics(p, m)

	or, err := newOracle(h.XML())
	if err != nil {
		return 0, err
	}
	for qi := range in.spec.queries {
		q := &in.spec.queries[qi]
		ids, err := h.QueryString(q.path)
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
		bad := !sameNames(got, want)
		for _, round := range in.answers {
			for i := qi; i < len(round); i += len(in.spec.queries) {
				if round[i] != len(want) {
					bad = true
				}
			}
		}
		if bad {
			printf("# verifier: %s %s: the system's answers differ from the oracle's %d nodes\n", in.w.Name, q.path, len(want))
			wrong += timedReads[qi]
		}
	}
	survivors, err := h.Count("//" + insertName)
	if err != nil {
		return 0, err
	}
	if want := luUniform + luSkewed; survivors != want {
		printf("# verifier: %s: %d inserted elements survive a round, the script leaves %d\n", in.w.Name, survivors, want)
		wrong += timedEdits
	}
	if h.Relabeled() != 0 || timedRelabeled != 0 {
		printf("# verifier: %s: %d nodes re-labelled in the verification round, %d acknowledged before\n", in.w.Name, h.Relabeled(), timedRelabeled)
		wrong += timedEdits
	}
	return wrong, nil
}

func (in *luInstance) close() error {
	if in.h == nil {
		return nil
	}
	err := in.h.Close()
	in.h = nil
	return err
}
