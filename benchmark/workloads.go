package main

import (
	"fmt"
	"path/filepath"
	"time"

	dynxml "repro"
	"repro/internal/journal"
)

// warmupOps is the fixed number of operations — the first of the
// stream — every workload runs before its measured phase. It is an op
// count, not a time, so that work moved into set-up shows in setup_s.
const warmupOps = 2000

// workload is one named set of inputs and the system configuration
// they run against.
type workload interface {
	def() workloadDef
	// setup generates the inputs from the seed, brings the system up
	// under dir and runs the warm-up. Its wall time is setup_s.
	setup(seed int64, dir string) (instance, error)
	// streamHash is the hash of the op streams the seed produces.
	streamHash(seed int64) (uint64, error)
	// ladder runs the traced replay and fills per-layer metrics.
	ladder(seed int64, dir string, lt *ladderTrace, m metricSet) error
	// phaseOps is how many operations each caller runs in the measured
	// phase of one instance: sized to take 1.4 to 2.4 s on the box the
	// benchmark was defined on — well under an instance's share of the
	// time cap, because a phase the cap cuts short is not the same work —
	// and far fewer in a smoke run.
	phaseOps() int
}

// instance is a workload set up and warmed.
type instance interface {
	// run measures one phase with tracing off: the next phaseOps
	// operations of each caller's stream, cut short if they take longer
	// than cap.
	run(cap time.Duration) (*phaseResult, error)
	// finish runs what follows a phase outside the timed region: the
	// size and counter metrics, the verifier and — on journaled
	// workloads — the recovery. It returns how many operations the
	// verifier found wrong.
	finish(p *phaseResult, m metricSet) (wrong int, err error)
	close() error
}

// mixedWorkload is a workload whose clients each draw a seeded mix of
// queries and single-element edits: serve-read, tenants-write and
// embed-paged.
type mixedWorkload struct {
	workloadDef
	server bool
	// newSpec builds the template and the system configuration.
	newSpec func() (*sysSpec, error)
	clients int
	// editShare is the share of edits in each client's stream. With
	// editEvery set the stream holds no edits; instead every
	// editEvery-th operation of a client is one from a second stream.
	// (The issue paced these edits by time, so that invalidations would
	// arrive at a fixed rate whatever the server's speed; that makes the
	// read-to-edit mix, and with it alloc_kb_per_op, follow the
	// machine's speed from run to run. By count the work is the same on
	// every run.)
	editShare  float64
	editEvery  int
	heavyShare float64
	// fifoCap is how many of its own inserts a client keeps per
	// document before each further edit deletes the oldest.
	fifoCap int
	// ladderReads and ladderEdits size the traced replay.
	ladderReads, ladderEdits int
	// phase is the per-client operation count of an instance's
	// measured phase.
	phase int
}

// sized returns full, or small in a smoke run.
func sized(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

func (w *mixedWorkload) def() workloadDef { return w.workloadDef }

func (w *mixedWorkload) phaseOps() int { return w.phase }

func serveRead(smoke bool) *mixedWorkload {
	return &mixedWorkload{
		workloadDef: workloadDefs[0],
		server:      true,
		newSpec: func() (*sysSpec, error) {
			tmpl, err := playsTemplate(3)
			if err != nil {
				return nil, err
			}
			qs, err := mustQueries(playsLight, playsHeavy)
			if err != nil {
				return nil, err
			}
			return &sysSpec{tmpl: tmpl, docs: 1, mode: journal.SyncInterval, interval: 5 * time.Millisecond, queries: qs}, nil
		},
		clients:     2,
		editEvery:   250,
		heavyShare:  0.05,
		fifoCap:     64,
		ladderReads: sized(smoke, 2000, 200),
		ladderEdits: sized(smoke, 200, 50),
		phase:       sized(smoke, 12000, 4000),
	}
}

func tenantsWrite(smoke bool) *mixedWorkload {
	return &mixedWorkload{
		workloadDef: workloadDefs[1],
		server:      true,
		newSpec: func() (*sysSpec, error) {
			qs, err := mustQueries(orderLight, nil)
			if err != nil {
				return nil, err
			}
			return &sysSpec{tmpl: orderTemplate(), docs: sized(smoke, 64, 8), mode: journal.SyncAlways, queries: qs}, nil
		},
		clients:     2,
		editShare:   0.70,
		fifoCap:     16,
		ladderReads: sized(smoke, 2000, 200),
		ladderEdits: sized(smoke, 1000, 50),
		phase:       sized(smoke, 3000, 600),
	}
}

func embedPaged(smoke bool) *mixedWorkload {
	return &mixedWorkload{
		workloadDef: workloadDefs[2],
		newSpec: func() (*sysSpec, error) {
			// A smoke run indexes three plays, still more pages than the
			// cache holds.
			tmpl, err := playsTemplate(sized(smoke, 10, 3))
			if err != nil {
				return nil, err
			}
			qs, err := mustQueries(append(append([]string{}, playsLight...), playsScans...), nil)
			if err != nil {
				return nil, err
			}
			return &sysSpec{tmpl: tmpl, docs: 1, paged: true, pageCache: 64, queries: qs}, nil
		},
		clients:     1,
		editShare:   0.50,
		fifoCap:     64,
		ladderReads: sized(smoke, 2000, 200),
		ladderEdits: sized(smoke, 2000, 50),
		phase:       sized(smoke, 48000, 8000),
	}
}

// gens returns client c's generators: the main stream and, for a
// workload that paces its edits, the edit stream.
func (w *mixedWorkload) gens(seed int64, c int, spec *sysSpec) (main, edits *mixGen) {
	main = newMixGen(streamSeed(seed, c, 0), spec.docs, w.editShare, w.heavyShare, spec.queries)
	if w.editEvery > 0 {
		edits = newMixGen(streamSeed(seed, c, 1), spec.docs, 1, 0, spec.queries)
	}
	return main, edits
}

func (w *mixedWorkload) streamHash(seed int64) (uint64, error) {
	spec, err := w.newSpec()
	if err != nil {
		return 0, err
	}
	var ops []op
	for c := 0; c < w.clients; c++ {
		main, edits := w.gens(seed, c, spec)
		for i := 0; i < 5000; i++ {
			ops = append(ops, main.next())
		}
		if edits != nil {
			for i := 0; i < 500; i++ {
				ops = append(ops, edits.next())
			}
		}
	}
	return hashOps(ops), nil
}

func (w *mixedWorkload) ladder(seed int64, dir string, lt *ladderTrace, m metricSet) error {
	spec, err := w.newSpec()
	if err != nil {
		return err
	}
	pl := &ladderPlan{
		name: w.Name, spec: spec, server: w.server, seed: seed,
		editShare: w.editShare, heavyShare: w.heavyShare, fifoCap: w.fifoCap,
		reads: w.ladderReads, edits: w.ladderEdits, editEvery: w.editEvery,
	}
	return pl.run(dir, lt, m)
}

type mixedInstance struct {
	w      *mixedWorkload
	spec   *sysSpec
	dir    string
	srv    *server
	stacks []stack
	states []*editState
	gens   []*mixGen
	edits  []*mixGen
	recs   []*recorder
	errs   errorLog
}

func (w *mixedWorkload) setup(seed int64, dir string) (instance, error) {
	spec, err := w.newSpec()
	if err != nil {
		return nil, err
	}
	in := &mixedInstance{w: w, spec: spec, dir: dir}
	if err := in.open(); err != nil {
		_ = in.close()
		return nil, err
	}
	for c := 0; c < w.clients; c++ {
		main, edits := w.gens(seed, c, spec)
		in.gens = append(in.gens, main)
		in.edits = append(in.edits, edits)
		// Sized for the whole phase, so that recording never allocates
		// inside it.
		in.recs = append(in.recs, newRecorder(w.phase, w.phase))
	}
	if err := in.bind(); err != nil {
		_ = in.close()
		return nil, err
	}
	warm := make([]*recorder, w.clients)
	for c := range warm {
		warm[c] = newRecorder(0, 0)
		in.client(c, warm[c], time.Time{}, warmupOps/w.clients)
		if warm[c].failed > 0 {
			_ = in.close()
			return nil, fmt.Errorf("%s: %d of %d warm-up operations failed: %v", w.Name, warm[c].failed, warm[c].attempted, in.errs.msgs)
		}
	}
	return in, nil
}

// open brings the system up: the serving stack and one typed client
// per connection, or the embedded handle.
func (in *mixedInstance) open() error {
	if !in.w.server {
		hs, err := newHandleStack(in.dir, in.spec, false, nil)
		if err != nil {
			return err
		}
		in.stacks = []stack{hs}
		return nil
	}
	srv, err := startServer(filepath.Join(in.dir, "root"), in.spec.durability(), in.spec.docs)
	if err != nil {
		return err
	}
	in.srv = srv
	for c := 0; c < in.w.clients; c++ {
		cs, err := newClientStack(srv, in.spec, c == 0, nil)
		if err != nil {
			return err
		}
		in.stacks = append(in.stacks, cs)
	}
	return nil
}

// bind asks the running system for the ids of the editable parents and
// splits them among the clients.
func (in *mixedInstance) bind() error {
	in.states = in.states[:0]
	for c := 0; c < in.w.clients; c++ {
		st, err := bindState(in.stacks[c], in.spec, in.w.fifoCap, c, in.w.clients)
		if err != nil {
			return err
		}
		in.states = append(in.states, st)
	}
	return nil
}

func bindState(s stack, spec *sysSpec, fifoCap, client, clients int) (*editState, error) {
	qs, err := mustQueries([]string{"//" + spec.tmpl.parentName}, nil)
	if err != nil {
		return nil, err
	}
	st := newEditState(spec.docs, fifoCap, len(spec.queries))
	for d := 0; d < spec.docs; d++ {
		ids, err := s.query(d, &qs[0])
		if err != nil {
			return nil, err
		}
		if err := st.bindParents(d, ids, spec.tmpl.parents, client, clients); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// client is one closed-loop client: it sends its next operation only
// when the previous one has been answered. It stops after ops
// operations, or at the deadline (when one is set) if that comes first.
func (in *mixedInstance) client(c int, rec *recorder, deadline time.Time, ops int) {
	s, st, gen, edits := in.stacks[c], in.states[c], in.gens[c], in.edits[c]
	last := time.Now()
	for n := 0; n < ops; n++ {
		if !deadline.IsZero() && !last.Before(deadline) {
			return
		}
		var o op
		if every := in.w.editEvery; edits != nil && n%every == every-1 {
			o = edits.next()
		} else {
			o = gen.next()
		}
		t0 := time.Now()
		write, err := st.apply(s, o, in.spec.queries)
		last = time.Now()
		rec.done(write, t0, last, err)
		if err != nil {
			in.errs.add(err)
		}
	}
}

func (in *mixedInstance) run(length time.Duration) (*phaseResult, error) {
	p, err := measure(length, in.recs, func(i int, rec *recorder, deadline time.Time) {
		in.client(i, rec, deadline, in.w.phase)
	})
	if err != nil {
		return nil, err
	}
	p.errs = in.errs.msgs
	return p, nil
}

// handles pins nothing: it returns the in-process handle of every
// document for the untimed size and verification reads, with a
// function that releases them.
func (in *mixedInstance) handles() ([]*dynxml.Handle, func(), error) {
	if !in.w.server {
		return in.stacks[0].(*handleStack).hs, func() {}, nil
	}
	var hs []*dynxml.Handle
	var release []func()
	done := func() {
		for _, r := range release {
			r()
		}
	}
	for d := 0; d < in.spec.docs; d++ {
		pin, err := in.srv.cat.Acquire(docName(d))
		if err != nil {
			done()
			return nil, nil, err
		}
		release = append(release, pin.Release)
		hs = append(hs, pin.Handle())
	}
	return hs, done, nil
}

func (in *mixedInstance) finish(p *phaseResult, m metricSet) (int, error) {
	hs, release, err := in.handles()
	if err != nil {
		return 0, err
	}
	var bits, relabeled int64
	var nodes int
	var lens codeLens
	for _, h := range hs {
		bits += h.Labeling().TotalLabelBits()
		nodes += h.Len()
		relabeled += h.Relabeled()
		lens.add(h.Labeling())
	}
	m["label_bytes_per_node"] = float64(bits) / 8 / float64(nodes)
	m["cdbs.code_len_bits_p50"], m["cdbs.code_len_bits_max"] = lens.p50max()
	st := hs[0].Stats().Storage
	m["pagestore.allocated_pages"] = float64(st.AllocatedPages)
	if in.w.server {
		m["catalog.resident_bytes"] = float64(in.srv.cat.Stats().ResidentBytes)
	}
	counterMetrics(p, m)

	wrong, verr := in.verify(hs, relabeled)
	release()
	if verr != nil {
		return wrong, verr
	}
	if in.w.server {
		w2, err := in.recover(m)
		wrong += w2
		if err != nil {
			return wrong, err
		}
	}
	return wrong, nil
}

func (in *mixedInstance) close() error {
	var err error
	for _, s := range in.stacks {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}
	in.stacks = nil
	if in.srv != nil {
		if serr := in.srv.stop(); err == nil {
			err = serr
		}
		in.srv = nil
	}
	return err
}
