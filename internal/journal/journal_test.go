package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dyndoc"
	"repro/internal/faultfs"
	"repro/internal/registry"
	"repro/internal/symtab"
	"repro/internal/xmltree"
)

const testScheme = "V-CDBS-Containment"

// mustDoc parses xml — attributes included, as attribute nodes — and
// labels it under testScheme.
func mustDoc(t *testing.T, xml string) *dyndoc.Document {
	t.Helper()
	entry, err := registry.Lookup(testScheme)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := xmltree.ParseWithOptions(strings.NewReader(xml), xmltree.ParseOptions{IncludeAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dyndoc.New(tree, entry.Build)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func rootID(t *testing.T, d *dyndoc.Document) int {
	t.Helper()
	pre := d.Labeling().Tree().PreOrder()
	if len(pre) == 0 {
		t.Fatal("empty document")
	}
	return pre[0]
}

// applyAndAppend runs one batch against d and journals it, returning
// the wait function.
func applyAndAppend(t *testing.T, j *Journal, d *dyndoc.Document, edits []dyndoc.Edit) func() error {
	t.Helper()
	results, err := d.ApplyBatch(edits)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	wait, err := j.Append(edits, results)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if wait == nil {
		wait = func() error { return nil }
	}
	return wait
}

// dirFiles reads every file in dir, name → contents: two calls compare
// equal exactly when nothing in the directory was created, removed or
// modified in between.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func insertEdit(parent int, name string) []dyndoc.Edit {
	return []dyndoc.Edit{{Op: dyndoc.OpInsertElement, Parent: parent, Pos: 0, Name: name}}
}

func TestCreateAppendReplay(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root><a/><b/></root>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	for i := 0; i < 5; i++ {
		wait := applyAndAppend(t, j, d, insertEdit(root, fmt.Sprintf("n%d", i)))
		if err := wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
	st := j.Stats()
	if st.Seq != 5 || st.Durable != 5 || st.Appended != 5 {
		t.Fatalf("stats = %+v, want seq=durable=appended=5", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	j2, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.Repaired {
		t.Fatalf("clean journal reported repair: %+v", info)
	}
	if info.Batches != 5 || info.Edits != 5 {
		t.Fatalf("replayed %d batches / %d edits, want 5/5", info.Batches, info.Edits)
	}
	if got, want := d2.XML(), d.XML(); got != want {
		t.Fatalf("replayed XML = %s, want %s", got, want)
	}
	if st := j2.Stats(); st.Seq != 5 || st.Appended != 0 {
		t.Fatalf("reopened stats = %+v, want seq=5 appended=0", st)
	}
}

func TestReplayContinuesAppending(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	if err := applyAndAppend(t, j, d, insertEdit(root, "first"))(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, d2, _, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyAndAppend(t, j2, d2, insertEdit(rootID(t, d2), "second"))(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	_, d3, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	if info.Batches != 2 {
		t.Fatalf("replayed %d batches, want 2", info.Batches)
	}
	want := "<root><second></second><first></first></root>"
	if got := d3.XML(); got != want {
		t.Fatalf("XML after two sessions = %s, want %s", got, want)
	}
}

// TestReplayRefusesBadName: a log written before names were checked
// can hold an insert under a name a checkpoint could not bring back.
// Replay refuses it as the insert is refused now, naming the batch, and
// changes no file, with or without Recover: it neither drops the batch
// nor carries the name into a checkpoint that would not read back.
func TestReplayRefusesBadName(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	// The batch as such a log recorded it: the name, and the id it took.
	wait, err := j.Append(insertEdit(rootID(t, d), "p:q"), []dyndoc.EditResult{{IDs: []int{d.Labeling().Tree().Cap()}}})
	if err == nil && wait != nil {
		err = wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	for _, recover := range []bool{false, true} {
		_, _, _, err := Replay(Config{Dir: dir, Scheme: testScheme, Recover: recover})
		if !errors.Is(err, symtab.ErrBadName) || !strings.Contains(err.Error(), "batch 1") {
			t.Fatalf("Replay (recover %v) = %v, want ErrBadName in batch 1", recover, err)
		}
		if !reflect.DeepEqual(dirFiles(t, dir), before) {
			t.Fatalf("Replay (recover %v) changed the journal's files", recover)
		}
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Create(Config{Dir: dir, Scheme: testScheme}, d); !errors.Is(err, ErrExists) {
		t.Fatalf("second Create = %v, want ErrExists", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := j.Append(insertEdit(0, "x"), []dyndoc.EditResult{{IDs: []int{1}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
}

func TestCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	for i := 0; i < 8; i++ {
		if err := applyAndAppend(t, j, d, insertEdit(root, fmt.Sprintf("pre%d", i)))(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(d); err != nil {
		t.Fatal(err)
	}
	// Old generation removed, new pair present.
	for _, p := range []string{ckptPath(dir, 0), logPath(dir, 0)} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s still exists after checkpoint", filepath.Base(p))
		}
	}
	for _, p := range []string{ckptPath(dir, 1), logPath(dir, 1)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s missing after checkpoint: %v", filepath.Base(p), err)
		}
	}
	if st := j.Stats(); st.Generation != 1 || st.Checkpoints != 1 {
		t.Fatalf("stats after checkpoint = %+v", st)
	}
	// Edits after the checkpoint land in the new log and replay on
	// top of it.
	if err := applyAndAppend(t, j, d, insertEdit(root, "post"))(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	if info.Checkpoint != 1 || info.Batches != 1 {
		t.Fatalf("replay info = %+v, want checkpoint=1 batches=1", info)
	}
	if got, want := d2.XML(), d.XML(); got != want {
		t.Fatalf("replayed XML = %s, want %s", got, want)
	}
}

// TestCheckpointRoundTripsEditedText checks the checkpoint against a
// document with text and attribute nodes that has been edited (the
// checkpoint's id list counts attribute nodes, so a rebuild that
// dropped them could not be reopened at all): the checkpoint's XML
// comes from the document's columns and its labeling's tree, Replay
// re-parses it, and the XML of what Replay rebuilds — with the batches
// journaled after the checkpoint applied on top — must be the
// original's, byte for byte.
func TestCheckpointRoundTripsEditedText(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, `<play id="p1" lang="en"><title short="H &amp; co">Hamlet &amp; co</title><act n="1"><scene><speech><speaker who="a&lt;b">A</speaker><line>to be &lt;or&gt; not</line></speech></scene></act></play>`)
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	speech := func(n int) *xmltree.Node {
		sp := xmltree.NewElement("speech")
		sp.AppendChild(xmltree.NewAttr("n", fmt.Sprint(n)))
		sp.AppendChild(xmltree.NewElement("speaker")).AppendChild(xmltree.NewText(fmt.Sprintf("speaker %d", n)))
		sp.AppendChild(xmltree.NewElement("line")).AppendChild(xmltree.NewText(fmt.Sprintf("line %d & more", n)))
		return sp
	}
	script := func(from, to int) {
		for i := from; i < to; i++ {
			scenes, err := d.QueryString("//scene")
			if err != nil || len(scenes) == 0 {
				t.Fatalf("scenes: %v, %v", scenes, err)
			}
			edits := []dyndoc.Edit{{Op: dyndoc.OpInsertTree, Parent: scenes[0], Pos: i % 2, Fragment: speech(i)}}
			switch i % 5 {
			case 1:
				edits = append(edits, dyndoc.Edit{Op: dyndoc.OpInsertElement, Parent: scenes[0], Pos: 0, Name: "stagedir"})
			case 3:
				speeches, err := d.QueryString("//speech")
				if err != nil {
					t.Fatal(err)
				}
				edits = append(edits, dyndoc.Edit{Op: dyndoc.OpDeleteSubtree, Node: speeches[len(speeches)/2]})
			}
			if err := applyAndAppend(t, j, d, edits)(); err != nil {
				t.Fatal(err)
			}
		}
	}
	script(0, 40)
	if err := j.Checkpoint(d); err != nil {
		t.Fatal(err)
	}
	script(40, 60)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.Checkpoint != 1 || info.Batches != 20 {
		t.Fatalf("replay info = %+v, want checkpoint=1 batches=20", info)
	}
	if got, want := d2.XML(), d.XML(); got != want {
		t.Fatalf("replayed XML = %s\nwant %s", got, want)
	}
}

// TestCheckpointNewLogFailureKeepsOldGeneration pins the Checkpoint
// failure path where ckpt-(next) is written completely but the new
// log cannot be opened: the complete-but-unusable checkpoint must not
// survive, or the next Replay would prefer it and delete the old log
// — the one acknowledged batches keep landing in — as a stale
// generation.
func TestCheckpointNewLogFailureKeepsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	// Files open in order: 0 = ckpt-0, 1 = log-0, 2 = ckpt-1, 3 = log-1.
	wrap := (&crashFiles{n: 3, fault: faultfs.Fault{Op: faultfs.OpWrite, N: 1}}).wrap
	j, err := Create(Config{Dir: dir, Scheme: testScheme, WrapFile: wrap}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	for i := 0; i < 2; i++ {
		if err := applyAndAppend(t, j, d, insertEdit(root, fmt.Sprintf("pre%d", i)))(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(d); err == nil {
		t.Fatal("Checkpoint succeeded despite its new log failing")
	}
	if _, err := os.Stat(ckptPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed checkpoint left ckpt-1 behind (stat: %v)", err)
	}
	// The journal keeps acknowledging batches into the old log...
	if err := applyAndAppend(t, j, d, insertEdit(root, "post"))(); err != nil {
		t.Fatalf("append after failed checkpoint: %v", err)
	}
	want := d.XML()
	// ...and a crash-style replay (no clean Close) retains all of them.
	j2, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme, Recover: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.Checkpoint != 0 || info.Batches != 3 {
		t.Fatalf("replay info = %+v, want checkpoint=0 batches=3", info)
	}
	if got := d2.XML(); got != want {
		t.Fatalf("replayed XML = %s, want %s", got, want)
	}
}

// TestReplayPreservesRecordedScheme pins the "recorded scheme wins"
// contract across checkpoint cycles: replaying under a different
// configured scheme must not let a later Checkpoint re-record the
// journal onto the caller's scheme.
func TestReplayPreservesRecordedScheme(t *testing.T) {
	const recorded = "QED-Prefix"
	dir := t.TempDir()
	entry, err := registry.Lookup(recorded)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dyndoc.Parse("<root><a/></root>", entry.Build)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Create(Config{Dir: dir, Scheme: recorded}, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyAndAppend(t, j, d, insertEdit(rootID(t, d), "x"))(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under the caller-default scheme and checkpoint.
	j2, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	if info.Scheme != recorded {
		t.Fatalf("replay scheme = %q, want %q", info.Scheme, recorded)
	}
	if err := j2.Checkpoint(d2); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	j3, _, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if info.Scheme != recorded {
		t.Fatalf("scheme after checkpoint cycle = %q, want %q", info.Scheme, recorded)
	}
}

// TestCheckpointConcurrentWithGroupCommit races checkpoints against
// group-committing writers: Checkpoint must wait out the in-flight
// commit leader before retiring the old store, or it closes the store
// under the leader's lock-free fsync and wedges the journal with a
// spurious error for batches that are in fact durable. Run under
// -race: the close also raced the store's unsynchronized closed flag.
func TestCheckpointConcurrentWithGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	root := rootID(t, d)
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dyndoc.NewConcurrentFrom(d)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCommitHook(j.Append)

	const writers, perWriter = 4, 30
	stop := make(chan struct{})
	ckptErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckptErr <- nil
				return
			default:
			}
			if err := c.Locked(func(d *dyndoc.Document) error { return j.Checkpoint(d) }); err != nil {
				ckptErr <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := c.InsertElement(root, 0, fmt.Sprintf("w%dn%d", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(stop)
	if err := <-ckptErr; err != nil {
		t.Fatalf("Checkpoint racing writers: %v", err)
	}
	st := j.Stats()
	if st.Seq != writers*perWriter || st.Durable != st.Seq {
		t.Fatalf("stats after race = %+v, want durable=seq=%d", st, writers*perWriter)
	}
	want := c.XML()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, d2, _, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.XML(); got != want {
		t.Fatalf("replayed XML differs from published document:\n got %s\nwant %s", got, want)
	}
}

func TestReplayMissingJournal(t *testing.T) {
	if _, _, _, err := Replay(Config{Dir: t.TempDir(), Scheme: testScheme}); err == nil {
		t.Fatal("Replay of empty dir succeeded")
	}
}

func TestReplayRejectsStrayFile(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Replay(Config{Dir: dir, Scheme: testScheme}); err == nil {
		t.Fatal("Replay accepted a foreign file in the journal directory")
	}
}

// TestGroupCommitConcurrent drives the full integration: concurrent
// writers on a dyndoc.Concurrent whose commit hook is the journal,
// every edit acknowledged durable, then replay must reproduce the
// exact published document.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	root := rootID(t, d)
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dyndoc.NewConcurrentFrom(d)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCommitHook(j.Append)

	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := c.InsertElement(root, 0, fmt.Sprintf("w%dn%d", w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Seq != writers*perWriter {
		t.Fatalf("journaled %d batches, want %d", st.Seq, writers*perWriter)
	}
	if st.Durable != st.Seq {
		t.Fatalf("durable %d < seq %d after all acks", st.Durable, st.Seq)
	}
	want := c.XML()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	if info.Batches != writers*perWriter {
		t.Fatalf("replayed %d batches, want %d", info.Batches, writers*perWriter)
	}
	if got := d2.XML(); got != want {
		t.Fatalf("replayed XML differs from published document:\n got %s\nwant %s", got, want)
	}
}

// TestUpdateRejectedWhenJournaled pins the ErrRawUpdate guard: opaque
// mutations cannot be journaled, so they must be refused rather than
// silently lost on replay.
func TestUpdateRejectedWhenJournaled(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	c, err := dyndoc.NewConcurrentFrom(d)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCommitHook(j.Append)
	err = c.Update(func(d *dyndoc.Document) error { return nil })
	if !errors.Is(err, dyndoc.ErrRawUpdate) {
		t.Fatalf("Update on journaled document = %v, want ErrRawUpdate", err)
	}
}

func TestSyncIntervalEventuallyDurable(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme, Mode: SyncInterval, Interval: 5 * time.Millisecond}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	wait := applyAndAppend(t, j, d, insertEdit(root, "x"))
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := j.Stats(); st.Durable == st.Seq && st.Seq == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval flusher never caught up: %+v", j.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncAlwaysHoldsOneRecord: once a SyncAlways append is
// acknowledged, its log holds no pending bytes, and no buffer larger
// than the largest record it wrote.
func TestSyncAlwaysHoldsOneRecord(t *testing.T) {
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: t.TempDir(), Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	root := rootID(t, d)
	largest := 0
	for i, name := range []string{"a", strings.Repeat("b", 300), "c"} {
		edits := insertEdit(root, name)
		results, err := d.ApplyBatch(edits)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := EncodeBatch(edits, results)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, len(appendRecord(nil, uint64(i+1), payload)))
		wait, err := j.Append(edits, results)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		pending, held := len(j.store.pending), cap(j.store.pending)
		j.mu.Unlock()
		if pending != 0 || held > largest {
			t.Fatalf("after batch %d: %d B pending in a %d B buffer, want none in at most %d", i+1, pending, held, largest)
		}
	}
}

func TestSyncNoneCloseStillDurable(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root/>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme, Mode: SyncNone}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	if err := applyAndAppend(t, j, d, insertEdit(root, "x"))(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean Close syncs even in SyncNone mode, so the reopen needs
	// no repair.
	_, d2, info, err := Replay(Config{Dir: dir, Scheme: testScheme})
	if err != nil {
		t.Fatal(err)
	}
	if info.Repaired || info.Batches != 1 {
		t.Fatalf("replay info = %+v, want clean 1-batch replay", info)
	}
	if got, want := d2.XML(), d.XML(); got != want {
		t.Fatalf("XML = %s, want %s", got, want)
	}
}

// TestCheckpointRecords pins the checkpoint format and its backward
// compatibility: a fresh checkpoint is exactly a meta record and an
// END trailer; one in the shape older versions wrote — N per-node
// label records in between, END advertising N — still replays through
// the same reader; and one whose advertised count is off is still an
// incomplete checkpoint.
func TestCheckpointRecords(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root><a/><b/></root>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	for _, name := range []string{"x", "y"} {
		if err := applyAndAppend(t, j, d, insertEdit(root, name))(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := readAll(ckptPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != metaRecordID || recs[1].ID != endRecordID {
		t.Fatalf("fresh checkpoint holds %d records, want exactly meta + END", len(recs))
	}

	rewrite := func(labels, advertised int) {
		t.Helper()
		store, err := openStore(Config{}, ckptPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		write := func(id uint64, payload []byte) {
			t.Helper()
			if err := store.Write(id, payload); err != nil {
				t.Fatal(err)
			}
		}
		write(metaRecordID, recs[0].Payload)
		for v := 0; v < labels; v++ {
			write(uint64(v), []byte{byte(v)})
		}
		write(endRecordID, encodeEnd(checkpointEnd{Labels: advertised}))
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rewrite(3, 3)
	j2, d2, info, err := Replay(Config{Dir: dir})
	if err != nil {
		t.Fatalf("label-carrying checkpoint: %v", err)
	}
	if info.Repaired || info.Batches != 2 || d2.XML() != d.XML() {
		t.Fatalf("label-carrying checkpoint: info %+v, XML %s, want %s", info, d2.XML(), d.XML())
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	rewrite(3, 2)
	if _, ok := readCheckpoint(ckptPath(dir, 0)); ok {
		t.Fatal("checkpoint advertising 2 label records but holding 3 read as complete")
	}
	if _, _, _, err := Replay(Config{Dir: dir, Recover: true}); err == nil {
		t.Fatal("replayed from a checkpoint with a wrong record count")
	}
}

// TestSegmentHeaderDamage: a segment whose 8-byte header has one bit
// flipped is damaged, not torn. For the log and for the checkpoint, at
// every header byte, Replay fails with and without Recover and leaves
// every file in the directory byte for byte as it was — in particular
// the log's CRC-intact acknowledged batches, which one restored byte
// makes replayable again. (Reading such a log as a checksum-free
// legacy format once let recovery cut it down to a fraction.) A
// damaged checkpoint is an incomplete checkpoint like any other.
func TestSegmentHeaderDamage(t *testing.T) {
	dir := t.TempDir()
	d := mustDoc(t, "<root><a/><b/></root>")
	j, err := Create(Config{Dir: dir, Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	root := rootID(t, d)
	const edits = 10
	for i := 0; i < edits; i++ {
		if err := applyAndAppend(t, j, d, insertEdit(root, fmt.Sprintf("n%d", i)))(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string { return dirFiles(t, dir) }
	for _, path := range []string{logPath(dir, 0), ckptPath(dir, 0)} {
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			damaged := append([]byte(nil), clean...)
			damaged[i] ^= 1
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			before := files()
			for _, recover := range []bool{false, true} {
				what := fmt.Sprintf("%s byte %d, Recover=%v", filepath.Base(path), i, recover)
				j, _, _, err := Replay(Config{Dir: dir, Recover: recover})
				if err == nil {
					_ = j.Close()
					t.Fatalf("%s: Replay succeeded", what)
				}
				if path == logPath(dir, 0) {
					var typed bool
					switch {
					case !recover: // refused for want of Recover
						typed = errors.Is(err, ErrRecoveryTruncated)
					case i < 7: // refused by the segment reader: bad magic
						typed = errors.Is(err, ErrCorrupt)
					default: // refused by the segment reader: bad version
						typed = strings.Contains(err.Error(), "unsupported format version")
					}
					if !typed {
						t.Errorf("%s: unexpected error %v", what, err)
					}
				}
				if after := files(); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s: Replay modified the journal directory", what)
				}
			}
		}
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j2, d2, info, err := Replay(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if info.Repaired || info.Batches != edits || d2.XML() != d.XML() {
		t.Fatalf("after restoring the headers: info %+v, XML %s, want %s", info, d2.XML(), d.XML())
	}
}

// TestUnfinishedCreate pins the one directory state that is not a
// journal although it holds a segment file: a lone incomplete
// ckpt-00000000, which is what a kill inside Create (or inside a
// follower's first snapshot adoption) leaves. Nothing in it was ever
// acknowledged, so Exists says no, Replay reports no journal, a second
// Create writes over it and a follower fetches from scratch — while an
// unreachable leader, like every refusal here, leaves the directory
// byte-identical. Any other directory without a complete checkpoint
// stays a hard error and is never modified.
func TestUnfinishedCreate(t *testing.T) {
	src := t.TempDir()
	j, err := Create(Config{Dir: src, Scheme: testScheme}, mustDoc(t, "<root><a/></root>"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt0, err := os.ReadFile(ckptPath(src, 0))
	if err != nil {
		t.Fatal(err)
	}
	log0, err := os.ReadFile(logPath(src, 0))
	if err != nil {
		t.Fatal(err)
	}

	// A live leader for the follower halves.
	d := mustDoc(t, `<root><meta lang="en">x</meta></root>`)
	leader, err := Create(Config{Dir: t.TempDir(), Scheme: testScheme}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leaderWrite(t, leader, d, "a")

	seed := func(t *testing.T, name string, content []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	unchanged := func(t *testing.T, dir string, before map[string]string, what string) {
		t.Helper()
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s modified the directory", what)
		}
	}

	for _, cut := range []int{0, 5, 20, len(ckpt0) - 3} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			residue := ckpt0[:cut]
			dir := seed(t, "ckpt-00000000", residue)
			before := dirFiles(t, dir)
			if ok, err := Exists(dir); err != nil || ok {
				t.Fatalf("Exists = %v, %v; want false", ok, err)
			}
			for _, recover := range []bool{false, true} {
				if _, _, _, err := Replay(Config{Dir: dir, Recover: recover}); !errors.Is(err, errNoJournal) {
					t.Fatalf("Replay(Recover=%v) = %v, want errNoJournal", recover, err)
				}
			}
			if _, err := OpenFollower(FollowerConfig{Dir: dir, Fetch: deadLeader, Manual: true}); err == nil {
				t.Fatal("follower opened with the leader unreachable and nothing mirrored")
			}
			unchanged(t, dir, before, "a refused open")

			// Leader: Create writes over the residue and round-trips.
			doc := mustDoc(t, "<root><b/></root>")
			j, err := Create(Config{Dir: dir, Scheme: testScheme}, doc)
			if err != nil {
				t.Fatalf("Create over the residue: %v", err)
			}
			if err := applyAndAppend(t, j, doc, insertEdit(rootID(t, doc), "n"))(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, d2, info, err := Replay(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if info.Repaired || d2.XML() != doc.XML() {
				t.Fatalf("round trip: info %+v, XML %s, want %s", info, d2.XML(), doc.XML())
			}

			// Follower: the same residue in a mirror is fetched over.
			fdir := seed(t, "ckpt-00000000", residue)
			f, err := OpenFollower(FollowerConfig{Dir: fdir, Fetch: fetchVia(leader), Manual: true})
			if err != nil {
				t.Fatalf("follower over the residue, leader reachable: %v", err)
			}
			defer f.Close()
			if got := f.Doc().XML(); got != d.XML() {
				t.Fatalf("follower state = %s, want %s", got, d.XML())
			}
		})
	}

	for name, content := range map[string][]byte{
		"log-00000000":  log0,
		"ckpt-00000001": ckpt0[:len(ckpt0)-3],
	} {
		t.Run("lone-"+name, func(t *testing.T) {
			dir := seed(t, name, content)
			before := dirFiles(t, dir)
			if ok, err := Exists(dir); err != nil || !ok {
				t.Fatalf("Exists = %v, %v; want true", ok, err)
			}
			for _, recover := range []bool{false, true} {
				j, _, _, err := Replay(Config{Dir: dir, Recover: recover})
				if err == nil {
					_ = j.Close()
					t.Fatalf("Replay(Recover=%v) succeeded", recover)
				}
				if errors.Is(err, errNoJournal) {
					t.Fatalf("Replay(Recover=%v) = %v: not an absent journal", recover, err)
				}
			}
			if _, err := Create(Config{Dir: dir, Scheme: testScheme}, mustDoc(t, "<root/>")); !errors.Is(err, ErrExists) {
				t.Fatalf("Create = %v, want ErrExists", err)
			}
			if f, err := OpenFollower(FollowerConfig{Dir: dir, Fetch: fetchVia(leader), Manual: true}); err == nil {
				_ = f.Close()
				t.Fatal("follower opened over a mirror with no complete checkpoint")
			}
			unchanged(t, dir, before, "a refused open")
		})
	}
}
