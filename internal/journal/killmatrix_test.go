package journal

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dyndoc"
	"repro/internal/faultfs"
	"repro/internal/registry"
	"repro/internal/xmltree"
)

// The kill matrix runs one deterministic workload once per I/O
// boundary, injecting a fault at exactly that boundary and treating
// the first error as a process kill: nothing further is issued, the
// journal is abandoned as-is, and Replay must rebuild a document that
// contains every batch whose durability was acknowledged — the
// journal's one promise at durability=always.

// step is one scripted workload action: a batch generator (a
// deterministic function of document state, so the reference and
// every crash run derive identical edits) or a checkpoint.
type step struct {
	ckpt bool
	gen  func(d *dyndoc.Document) []dyndoc.Edit
}

// crashRun is what a faulted workload run observed before "dying".
type crashRun struct {
	acked        int // batches whose wait() returned nil
	applied      int // batches issued to the journal (acked + in-flight)
	createFailed bool
}

// runScripted executes the script against a fresh journal in dir,
// stopping at the first error, and leaves the directory exactly as
// the crash left it (Close is only attempted when nothing failed —
// a dead process does not get to flush).
func runScripted(t *testing.T, dir string, wrap func(File) File, steps []step, clean bool) crashRun {
	t.Helper()
	d := mustDoc(t, "<root/>")
	cfg := Config{Dir: dir, Scheme: testScheme, WrapFile: wrap}
	j, err := Create(cfg, d)
	if err != nil {
		return crashRun{createFailed: true}
	}
	var run crashRun
	for _, s := range steps {
		if s.ckpt {
			if err := j.Checkpoint(d); err != nil {
				return run
			}
			continue
		}
		edits := s.gen(d)
		results, err := d.ApplyBatch(edits)
		if err != nil {
			t.Fatalf("in-memory ApplyBatch failed (script bug): %v", err)
		}
		wait, err := j.Append(edits, results)
		if err != nil {
			return run
		}
		run.applied++
		if wait != nil {
			if err := wait(); err != nil {
				return run
			}
		}
		run.acked++
	}
	if clean {
		if err := j.Close(); err != nil {
			t.Fatalf("clean Close: %v", err)
		}
	}
	return run
}

// referenceXMLs applies the script's batches to a journal-free
// document and returns the XML after each prefix: refXML[m] is the
// state with the first m batches applied.
func referenceXMLs(t *testing.T, steps []step) []string {
	t.Helper()
	d := mustDoc(t, "<root/>")
	out := []string{d.XML()}
	for _, s := range steps {
		if s.ckpt {
			continue
		}
		if _, err := d.ApplyBatch(s.gen(d)); err != nil {
			t.Fatalf("reference ApplyBatch: %v", err)
		}
		out = append(out, d.XML())
	}
	return out
}

// profileOps runs the workload cleanly with every opened file wrapped
// in a recording faultfs.File and returns per-file write and sync
// counts, in file-open order.
func profileOps(t *testing.T, steps []step) (writes, syncs []int) {
	t.Helper()
	var files []*faultfs.File
	wrap := func(f File) File {
		ff := faultfs.Wrap(f.(faultfs.Backing))
		files = append(files, ff)
		return ff
	}
	run := runScripted(t, t.TempDir(), wrap, steps, true)
	if run.acked != run.applied {
		t.Fatalf("clean profile run acked %d of %d", run.acked, run.applied)
	}
	for _, ff := range files {
		writes = append(writes, ff.Ops(faultfs.OpWrite))
		syncs = append(syncs, ff.Ops(faultfs.OpSync))
	}
	return writes, syncs
}

// wrapNth arms one fault on the n-th file the journal opens.
func wrapNth(n int, fault faultfs.Fault) func(File) File {
	opened := 0
	return func(f File) File {
		idx := opened
		opened++
		if idx == n {
			return faultfs.Wrap(f.(faultfs.Backing), fault)
		}
		return f
	}
}

// ckptBatches returns how many batches precede the first checkpoint
// in the script (the base a generation-1 replay starts from).
func ckptBatches(steps []step) int {
	n := 0
	for _, s := range steps {
		if s.ckpt {
			return n
		}
		n++
	}
	return 0
}

// verifyCrash replays the crashed journal and checks the durability
// contract: the rebuilt document is some scripted prefix at least as
// long as the acknowledged one.
func verifyCrash(t *testing.T, dir string, steps []step, refXML []string, run crashRun, boundary string) int {
	t.Helper()
	j2, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme, Recover: true})
	if err != nil {
		t.Fatalf("%s: Replay after crash: %v (acked %d)", boundary, err, run.acked)
	}
	defer j2.Close()
	applied := info.Batches
	if info.Checkpoint >= 1 {
		applied += ckptBatches(steps)
	}
	if applied < run.acked {
		t.Fatalf("%s: replay recovered %d batches, lost acknowledged batch(es): acked %d", boundary, applied, run.acked)
	}
	if applied > run.applied {
		t.Fatalf("%s: replay recovered %d batches but only %d were issued", boundary, applied, run.applied)
	}
	if got, want := d2.XML(), refXML[applied]; got != want {
		t.Fatalf("%s: replayed document is not the %d-batch prefix:\n got %s\nwant %s", boundary, applied, got, want)
	}
	checkOracle(t, d2, boundary)
	return applied
}

// verifyCreateCrash checks that a kill inside Create never wedges the
// directory. Create had not returned, so nothing was acknowledged;
// what it left is either no journal — a second Create writes over it —
// or, once checkpoint 0 was complete, a journal of the source document
// that recovery opens. Either way the directory then takes a batch and
// replays it cleanly. It reports whether the directory was re-created.
func verifyCreateCrash(t *testing.T, dir, boundary string) (recreated bool) {
	t.Helper()
	cfg := Config{Dir: dir, Scheme: testScheme, Recover: true}
	exists, err := Exists(dir)
	if err != nil {
		t.Fatalf("%s: Exists after a kill inside Create: %v", boundary, err)
	}
	d := mustDoc(t, "<root/>")
	var j *Journal
	if exists {
		var d2 *dyndoc.Document
		if j, d2, _, err = Replay(cfg); err != nil {
			t.Fatalf("%s: Replay after a kill inside Create: %v", boundary, err)
		}
		if d2.XML() != d.XML() {
			t.Fatalf("%s: recovered %s, want the source document %s", boundary, d2.XML(), d.XML())
		}
		d = d2
	} else if j, err = Create(cfg, d); err != nil {
		t.Fatalf("%s: Create after a kill inside Create: %v", boundary, err)
	}
	if err := applyAndAppend(t, j, d, insertEdit(rootID(t, d), "again"))(); err != nil {
		t.Fatalf("%s: append after re-open: %v", boundary, err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("%s: %v", boundary, err)
	}
	j2, d2, info, err := Replay(Config{Dir: dir})
	if err != nil {
		t.Fatalf("%s: clean Replay after re-open: %v", boundary, err)
	}
	defer j2.Close()
	if info.Batches != 1 || d2.XML() != d.XML() {
		t.Fatalf("%s: round trip: info %+v, XML %s, want %s", boundary, info, d2.XML(), d.XML())
	}
	return !exists
}

// checkOracle verifies the replayed document's labeling answers the
// structural predicates correctly — the registry conformance check,
// restricted to live nodes (replayed documents may carry deletions).
func checkOracle(t *testing.T, d *dyndoc.Document, boundary string) {
	t.Helper()
	lab := d.Labeling()
	tr := lab.Tree()
	live := tr.PreOrder()
	pos := make(map[int]int, len(live))
	for i, v := range live {
		pos[v] = i
	}
	gen := rand.New(rand.NewSource(7))
	trials := 10 * len(live) * len(live)
	if trials > 2000 {
		trials = 2000
	}
	for trial := 0; trial < trials; trial++ {
		u, v := live[gen.Intn(len(live))], live[gen.Intn(len(live))]
		if u == v {
			continue
		}
		if got, want := lab.IsAncestor(u, v), tr.IsAncestorStructural(u, v); got != want {
			t.Fatalf("%s: IsAncestor(%d,%d) = %v, want %v", boundary, u, v, got, want)
		}
		if got, want := lab.IsParent(u, v), tr.Parent(v) == u; got != want {
			t.Fatalf("%s: IsParent(%d,%d) = %v, want %v", boundary, u, v, got, want)
		}
		if got, want := lab.Before(u, v), pos[u] < pos[v]; got != want {
			t.Fatalf("%s: Before(%d,%d) = %v, want %v", boundary, u, v, got, want)
		}
	}
	for _, v := range live {
		if got, want := lab.Level(v), tr.Depth(v); got != want {
			t.Fatalf("%s: Level(%d) = %d, want %d", boundary, v, got, want)
		}
	}
}

// killSteps is the deterministic kill-matrix workload: inserts, a
// subtree insert, a delete, a mid-script checkpoint, more inserts.
func killSteps(t *testing.T) []step {
	insert := func(name string) step {
		return step{gen: func(d *dyndoc.Document) []dyndoc.Edit {
			root := d.Labeling().Tree().PreOrder()[0]
			return []dyndoc.Edit{{Op: dyndoc.OpInsertElement, Parent: root, Pos: 0, Name: name}}
		}}
	}
	fragment := func() step {
		return step{gen: func(d *dyndoc.Document) []dyndoc.Edit {
			root := d.Labeling().Tree().PreOrder()[0]
			frag := mustFragment(t, "<sub><leaf>x</leaf><leaf>y</leaf></sub>")
			return []dyndoc.Edit{{Op: dyndoc.OpInsertTree, Parent: root, Pos: 1, Fragment: frag}}
		}}
	}
	deleteLastChild := func() step {
		return step{gen: func(d *dyndoc.Document) []dyndoc.Edit {
			tr := d.Labeling().Tree()
			root := tr.PreOrder()[0]
			kids := liveChildren(tr.Children[root], tr.Alive)
			return []dyndoc.Edit{{Op: dyndoc.OpDeleteSubtree, Node: kids[len(kids)-1]}}
		}}
	}
	return []step{
		insert("a"),
		fragment(),
		insert("b"),
		{ckpt: true},
		deleteLastChild(),
		insert("c"),
		insert("d"),
	}
}

func liveChildren(kids []int, alive func(int) bool) []int {
	var out []int
	for _, k := range kids {
		if alive(k) {
			out = append(out, k)
		}
	}
	return out
}

// mustFragment parses XML text into a standalone fragment tree for
// OpInsertTree.
func mustFragment(t *testing.T, text string) *xmltree.Node {
	t.Helper()
	doc, err := xmltree.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root
	root.Parent = nil
	return root
}

func TestKillMatrixAlways(t *testing.T) {
	steps := killSteps(t)
	refXML := referenceXMLs(t, steps)
	writes, syncs := profileOps(t, steps)
	total, inCreate, recreated := 0, 0, 0
	crash := func(boundary string, fi int, fault faultfs.Fault) {
		dir := t.TempDir()
		run := runScripted(t, dir, wrapNth(fi, fault), steps, false)
		if run.createFailed {
			// The journal never existed and no promise was made — except
			// that the directory stays usable.
			if verifyCreateCrash(t, dir, boundary) {
				recreated++
			}
			inCreate++
			return
		}
		verifyCrash(t, dir, steps, refXML, run, boundary)
		total++
	}
	for fi := range writes {
		for n := 1; n <= writes[fi]; n++ {
			for _, short := range []int{0, 1, 9} {
				crash(fmt.Sprintf("file%d/write%d/short%d", fi, n, short), fi, faultfs.Fault{Op: faultfs.OpWrite, N: n, Short: short})
			}
		}
		for n := 1; n <= syncs[fi]; n++ {
			crash(fmt.Sprintf("file%d/sync%d", fi, n), fi, faultfs.Fault{Op: faultfs.OpSync, N: n})
		}
	}
	if total < 10 || recreated == 0 || recreated == inCreate {
		t.Fatalf("kill matrix exercised only %d boundaries, %d inside Create (%d re-created) — profiling is broken", total, inCreate, recreated)
	}
	t.Logf("kill matrix: %d crash boundaries verified, %d more inside Create (%d re-created, %d recovered)", total, inCreate, recreated, inCreate-recreated)
}

// TestCrashRequiresRecoverFlag pins the API contract: a journal left
// by a crash does not open silently — without Config.Recover the
// damage is reported as ErrRecoveryTruncated.
func TestCrashRequiresRecoverFlag(t *testing.T) {
	steps := killSteps(t)
	writes, _ := profileOps(t, steps)
	dir := t.TempDir()
	// Tear the final write of the log (file 3 is log-1 after the
	// checkpoint; its last flush carries the tail batches).
	run := runScripted(t, dir, wrapNth(3, faultfs.Fault{Op: faultfs.OpWrite, N: writes[3], Short: 3}), steps, false)
	if run.createFailed {
		t.Fatal("unexpected create failure")
	}
	_, _, _, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if !errors.Is(err, ErrRecoveryTruncated) {
		t.Fatalf("Replay without Recover = %v, want ErrRecoveryTruncated", err)
	}
	if _, _, info, err := Replay(Config{Dir: dir, Scheme: testScheme, Recover: true}); err != nil {
		t.Fatalf("Replay with Recover: %v", err)
	} else if !info.Repaired {
		t.Fatalf("repairing replay did not report Repaired: %+v", info)
	}
}

// TestReplayEquivalenceRandom is the recovery-equivalence property
// test: random edit histories, a crash at every write and sync
// boundary, and the requirement that Replay lands on a prefix of the
// history no shorter than the acknowledged prefix, with XML, label
// order and query results matching the never-crashed reference.
func TestReplayEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			steps := randomSteps(t, seed, 14)
			refXML := referenceXMLs(t, steps)
			writes, syncs := profileOps(t, steps)
			for fi := range writes {
				for n := 1; n <= writes[fi]; n++ {
					boundary := fmt.Sprintf("file%d/write%d", fi, n)
					dir := t.TempDir()
					run := runScripted(t, dir, wrapNth(fi, faultfs.Fault{Op: faultfs.OpWrite, N: n, Short: n % 7}), steps, false)
					if run.createFailed {
						continue
					}
					applied := verifyCrash(t, dir, steps, refXML, run, boundary)
					verifyQueries(t, dir, steps, applied)
				}
				for n := 1; n <= syncs[fi]; n++ {
					boundary := fmt.Sprintf("file%d/sync%d", fi, n)
					dir := t.TempDir()
					run := runScripted(t, dir, wrapNth(fi, faultfs.Fault{Op: faultfs.OpSync, N: n}), steps, false)
					if run.createFailed {
						continue
					}
					verifyCrash(t, dir, steps, refXML, run, boundary)
				}
			}
		})
	}
}

// randomSteps builds a deterministic random edit script. Each step
// derives its randomness from (seed, step index) alone, so the same
// closure yields the same edits in every run that reaches it with the
// same document state.
func randomSteps(t *testing.T, seed int64, n int) []step {
	t.Helper()
	steps := make([]step, n)
	for i := 0; i < n; i++ {
		i := i
		steps[i] = step{gen: func(d *dyndoc.Document) []dyndoc.Edit {
			r := rand.New(rand.NewSource(seed*1000 + int64(i)))
			tr := d.Labeling().Tree()
			live := tr.PreOrder()
			// Insert parents must be elements; text nodes cannot have
			// children.
			elems, err := d.QueryString("//*")
			if err != nil || len(elems) == 0 {
				t.Fatalf("element query failed: %v", err)
			}
			switch {
			case r.Intn(10) < 6 || len(live) < 3:
				parent := elems[r.Intn(len(elems))]
				pos := r.Intn(len(liveChildren(tr.Children[parent], tr.Alive)) + 1)
				return []dyndoc.Edit{{Op: dyndoc.OpInsertElement, Parent: parent, Pos: pos, Name: fmt.Sprintf("s%dn%d", seed, i)}}
			case r.Intn(2) == 0:
				parent := elems[r.Intn(len(elems))]
				frag := mustFragment(t, fmt.Sprintf("<f%d><x/><y>t</y></f%d>", i, i))
				return []dyndoc.Edit{{Op: dyndoc.OpInsertTree, Parent: parent, Pos: 0, Fragment: frag}}
			default:
				// Delete a live non-root node.
				victim := live[1+r.Intn(len(live)-1)]
				return []dyndoc.Edit{{Op: dyndoc.OpDeleteSubtree, Node: victim}}
			}
		}}
	}
	return steps
}

// verifyQueries replays once more and checks that element-count
// queries on the replayed document match both the never-crashed
// reference (the same script prefix applied live, no journal) and a
// fresh parse of the same XML — replay-built labels answer queries
// exactly like update-built and bulk-built ones.
func verifyQueries(t *testing.T, dir string, steps []step, applied int) {
	t.Helper()
	j, d, _, err := Replay(Config{Dir: dir, Scheme: testScheme, Recover: true})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	defer j.Close()
	ref := mustDoc(t, "<root/>")
	m := 0
	for _, s := range steps {
		if s.ckpt {
			continue
		}
		if m == applied {
			break
		}
		if _, err := ref.ApplyBatch(s.gen(ref)); err != nil {
			t.Fatalf("reference ApplyBatch: %v", err)
		}
		m++
	}
	entry, err := registry.Lookup(testScheme)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := dyndoc.Parse(d.XML(), entry.Build)
	if err != nil {
		t.Fatalf("re-parsing replayed XML: %v", err)
	}
	for _, q := range []string{"//*", "/root", "//x", "//leaf"} {
		got, err1 := d.Count(q)
		want, err2 := ref.Count(q)
		parsed, err3 := fresh.Count(q)
		if (err1 == nil) != (err2 == nil) || (err1 == nil) != (err3 == nil) {
			t.Fatalf("query %s: replayed err=%v reference err=%v fresh err=%v", q, err1, err2, err3)
		}
		if got != want || got != parsed {
			t.Fatalf("query %s: replayed %d matches, reference %d, fresh parse %d", q, got, want, parsed)
		}
	}
}
