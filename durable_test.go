package dynxml

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/xmltree"
)

const durableSeed = `<root><a></a><b></b></root>`

// openDurable opens a fresh journaled handle in its own directory.
func openDurable(t *testing.T, opts ...Option) (*Handle, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "journal")
	h, err := Open(durableSeed, append([]Option{WithJournal(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h, dir
}

// TestDurableRoundTrip creates a journaled document, edits it, closes
// it, and reopens from the journal alone.
func TestDurableRoundTrip(t *testing.T) {
	h, dir := openDurable(t, WithScheme("QED-Containment"))
	if !h.Journaled() || !h.Concurrent() {
		t.Fatal("journaled handle must be journaled and concurrent")
	}
	roots, err := h.QueryString("/root")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.InsertElement(roots[0], 0, "x"); err != nil {
		t.Fatal(err)
	}
	want := h.XML()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(nil, WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Scheme() != "QED-Containment" {
		t.Fatalf("replayed scheme %q: the journal's recorded scheme must win", r.Scheme())
	}
	if got := r.XML(); got != want {
		t.Fatalf("replayed XML = %s, want %s", got, want)
	}
	// The replayed handle keeps appending.
	roots, err = r.QueryString("/root")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.InsertElement(roots[0], 0, "y"); err != nil {
		t.Fatal(err)
	}
	if n, err := r.Count("//y"); err != nil || n != 1 {
		t.Fatalf("Count(//y) = %d, %v", n, err)
	}
}

// TestDurableOptionValidation pins the option-combination errors.
func TestDurableOptionValidation(t *testing.T) {
	if _, err := Open(durableSeed, WithDurability(Always)); err == nil {
		t.Fatal("WithDurability without WithJournal accepted")
	}
	if _, err := Open(durableSeed, WithRecover()); err == nil {
		t.Fatal("WithRecover without WithJournal accepted")
	}
	h, dir := openDurable(t)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// An existing journal with a non-nil src is ambiguous.
	if _, err := Open(durableSeed, WithJournal(dir)); err == nil {
		t.Fatal("src plus existing journal accepted")
	}
	// A fresh journal needs a source document.
	if _, err := Open(nil, WithJournal(filepath.Join(t.TempDir(), "none"))); err == nil {
		t.Fatal("nil src with no journal accepted")
	}
	// Unknown scheme still surfaces through the journaled path.
	if _, err := Open(durableSeed, WithJournal(t.TempDir()+"/j"), WithScheme("nope")); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
}

// TestDurableClosedHandle verifies ErrClosed on every guarded method
// and that Close is idempotent.
func TestDurableClosedHandle(t *testing.T) {
	h, _ := openDurable(t)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	calls := map[string]func() error{
		"Name":            func() error { _, err := h.Name(0); return err },
		"QueryString":     func() error { _, err := h.QueryString("//a"); return err },
		"Count":           func() error { _, err := h.Count("//a"); return err },
		"InsertElement":   func() error { _, _, err := h.InsertElement(0, 0, "x"); return err },
		"InsertTree":      func() error { _, _, err := h.InsertTree(0, 0, nil); return err },
		"InsertTreeBatch": func() error { _, _, err := h.InsertTreeBatch(0, 0, nil); return err },
		"DeleteSubtree":   func() error { _, err := h.DeleteSubtree(1); return err },
		"ApplyBatch":      func() error { _, err := h.ApplyBatch([]Edit{{Op: OpDeleteSubtree, Node: 1}}); return err },
		"Sync":            h.Sync,
		"Checkpoint":      h.Checkpoint,
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
	// Stats stays readable on a closed handle.
	if s := h.Stats(); !s.Journaled || s.Scheme != DefaultScheme {
		t.Fatalf("Stats after Close = %+v", s)
	}
}

// TestDurableStats checks the typed stats snapshot against a known
// edit sequence.
func TestDurableStats(t *testing.T) {
	h, _ := openDurable(t)
	roots, err := h.QueryString("/root")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := h.InsertElement(roots[0], 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if !s.Journaled {
		t.Fatal("Stats.Journaled = false on a journaled handle")
	}
	if s.Nodes != 6 {
		t.Fatalf("Stats.Nodes = %d, want 6", s.Nodes)
	}
	if s.Journal.Appended != 3 || s.Journal.Durable != 3 {
		t.Fatalf("Journal stats = %+v, want 3 appended and durable", s.Journal)
	}
	if s.Journal.Checkpoints != 1 || s.Journal.Generation != 1 {
		t.Fatalf("Journal stats = %+v, want checkpoint generation 1", s.Journal)
	}
	if s.Journal.Mode.String() != "always" {
		t.Fatalf("Journal.Mode = %s, want always", s.Journal.Mode)
	}

	// An unjournaled handle reports zero-value journal stats.
	p, err := Open(durableSeed)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Journaled || s.Nodes != 3 || s.Scheme != DefaultScheme {
		t.Fatalf("plain Stats = %+v", s)
	}
	// Sync and Checkpoint are no-ops without a journal.
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableModes drives each durability mode through edits, Sync
// and reopen.
func TestDurableModes(t *testing.T) {
	for name, d := range map[string]Durability{
		"always":   Always,
		"interval": Interval(5 * time.Millisecond),
		"none":     None,
	} {
		t.Run(name, func(t *testing.T) {
			h, dir := openDurable(t, WithDurability(d))
			roots, err := h.QueryString("/root")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := h.InsertElement(roots[0], 0, "x"); err != nil {
				t.Fatal(err)
			}
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			if s := h.Stats(); s.Journal.Durable != 1 {
				t.Fatalf("Durable = %d after Sync, want 1", s.Journal.Durable)
			}
			want := h.XML()
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(nil, WithJournal(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.XML(); got != want {
				t.Fatalf("replayed XML = %s, want %s", got, want)
			}
		})
	}
}

// TestDurableConcurrentWriters hammers one journaled handle from many
// goroutines and replays the result.
func TestDurableConcurrentWriters(t *testing.T) {
	h, dir := openDurable(t)
	roots, err := h.QueryString("/root")
	if err != nil {
		t.Fatal(err)
	}
	root := roots[0]
	const writers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := h.InsertElement(root, 0, "w"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, err := h.Count("//w"); err != nil || n != writers*each {
		t.Fatalf("Count(//w) = %d, %v; want %d", n, err, writers*each)
	}
	want := h.XML()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(nil, WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.XML(); got != want {
		t.Fatalf("replayed XML diverges from live document")
	}
}

// TestDurableRecoverFlag pins WithRecover semantics on a crashed
// journal: a torn log tail fails plain Open with ErrRecoveryTruncated
// and opens fine with WithRecover.
func TestDurableRecoverFlag(t *testing.T) {
	h, dir := openDurable(t)
	roots, err := h.QueryString("/root")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := h.InsertElement(roots[0], 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the log tail, as a crash mid-write would.
	log := filepath.Join(dir, "log-00000000")
	st, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(log, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(nil, WithJournal(dir)); !errors.Is(err, ErrRecoveryTruncated) {
		t.Fatalf("Open on torn journal = %v, want ErrRecoveryTruncated", err)
	}
	r, err := Open(nil, WithJournal(dir), WithRecover())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// The torn record held the second insert; the first survives.
	if n, err := r.Count("//x"); err != nil || n != 1 {
		t.Fatalf("Count(//x) = %d, %v; want 1 after truncation", n, err)
	}
}

// TestDurableLogHeaderDamage: one flipped bit in the log segment's
// header used to make WithRecover read the CRC-protected log as a
// checksum-free legacy file, truncate it on disk — ten intact,
// acknowledged batches gone — and then fail anyway. A damaged header
// is refused with a typed error, with and without WithRecover, the log
// stays byte for byte as it was, and restoring the byte brings every
// edit back.
func TestDurableLogHeaderDamage(t *testing.T) {
	h, dir := openDurable(t)
	roots, err := h.QueryString("/root")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := h.InsertElement(roots[0], 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	want := h.XML()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "log-00000000")
	clean, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), clean...)
	damaged[0] ^= 1
	if err := os.WriteFile(log, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(nil, WithJournal(dir)); !errors.Is(err, ErrRecoveryTruncated) {
		t.Fatalf("Open on header-damaged log = %v, want ErrRecoveryTruncated", err)
	}
	if _, err := Open(nil, WithJournal(dir), WithRecover()); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("Open WithRecover on header-damaged log = %v, want journal.ErrCorrupt", err)
	}
	if after, err := os.ReadFile(log); err != nil || !bytes.Equal(after, damaged) {
		t.Fatalf("Open modified the damaged log: %d -> %d bytes, %v", len(damaged), len(after), err)
	}
	if err := os.WriteFile(log, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(nil, WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.XML(); got != want {
		t.Fatalf("replayed XML = %s, want %s", got, want)
	}
}

// TestDurableUnfinishedCreate: a strict prefix of ckpt-00000000 alone in
// the directory — what a kill inside the first Open leaves — used to
// wedge the name: Open(src) said "already holds a journal", Open(nil)
// "no complete checkpoint". Nothing in it was acknowledged, so Open(nil)
// answers as for an absent journal, without touching the file, and
// Open(src) creates over it. A lone log, or a lone incomplete later
// checkpoint, is still refused both ways and never modified.
func TestDurableUnfinishedCreate(t *testing.T) {
	h, src := openDurable(t)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt0, err := os.ReadFile(filepath.Join(src, "ckpt-00000000"))
	if err != nil {
		t.Fatal(err)
	}
	log0, err := os.ReadFile(filepath.Join(src, "log-00000000"))
	if err != nil {
		t.Fatal(err)
	}
	_, absent := Open(nil, WithJournal(t.TempDir()), WithRecover())
	if absent == nil {
		t.Fatal("Open(nil) over an empty directory succeeded")
	}
	seed := func(name string, content []byte) (dir, file string) {
		dir = t.TempDir()
		file = filepath.Join(dir, name)
		if err := os.WriteFile(file, content, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, file
	}

	for _, cut := range []int{0, 5, 20, len(ckpt0) - 3} {
		dir, file := seed("ckpt-00000000", ckpt0[:cut])
		if _, err := Open(nil, WithJournal(dir), WithRecover()); err == nil || err.Error() != absent.Error() {
			t.Fatalf("cut %d: Open(nil) = %v, want the absent-journal error %v", cut, err, absent)
		}
		if after, err := os.ReadFile(file); err != nil || !bytes.Equal(after, ckpt0[:cut]) {
			t.Fatalf("cut %d: Open(nil) modified the residue (%v)", cut, err)
		}
		h, err := Open(durableSeed, WithJournal(dir), WithRecover())
		if err != nil {
			t.Fatalf("cut %d: Open(src) over the residue: %v", cut, err)
		}
		roots, err := h.QueryString("/root")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.InsertElement(roots[0], 0, "x"); err != nil {
			t.Fatal(err)
		}
		want := h.XML()
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(nil, WithJournal(dir))
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got := r.XML(); got != want {
			t.Fatalf("cut %d: reopened XML = %s, want %s", cut, got, want)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for name, content := range map[string][]byte{
		"log-00000000":  log0,
		"ckpt-00000001": ckpt0[:len(ckpt0)-3],
	} {
		dir, file := seed(name, content)
		if _, err := Open(durableSeed, WithJournal(dir), WithRecover()); err == nil {
			t.Fatalf("lone %s: Open(src) created over it", name)
		}
		if _, err := Open(nil, WithJournal(dir), WithRecover()); err == nil || err.Error() == absent.Error() {
			t.Fatalf("lone %s: Open(nil) = %v, want a damaged-journal error", name, err)
		}
		if after, err := os.ReadFile(file); err != nil || !bytes.Equal(after, content) {
			t.Fatalf("lone %s: Open modified it (%v)", name, err)
		}
	}
}

// TestDurableAttributesRoundTrip: a journaled document opened from a
// tree that carries attribute nodes reopens from its journal — from
// the initial checkpoint plus log, and from a later checkpoint — with
// byte-equal XML.
func TestDurableAttributesRoundTrip(t *testing.T) {
	tree, err := xmltree.ParseWithOptions(
		strings.NewReader(`<root id="r1" lang="en"><a k="v &amp; w">text</a><b/></root>`),
		xmltree.ParseOptions{IncludeAttributes: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	h, err := Open(tree, WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	bs, err := h.QueryString("/root/b")
	if err != nil || len(bs) != 1 {
		t.Fatalf("/root/b = %v, %v", bs, err)
	}
	for round := 0; round < 2; round++ {
		if _, _, err := h.InsertElement(bs[0], 0, "x"); err != nil {
			t.Fatal(err)
		}
		want := h.XML()
		if !strings.Contains(want, `k="v &amp; w"`) {
			t.Fatalf("XML lost its attributes: %s", want)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if h, err = Open(nil, WithJournal(dir)); err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		if got := h.XML(); got != want {
			t.Fatalf("round %d: replayed XML = %s, want %s", round, got, want)
		}
		if err := h.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if bs, err = h.QueryString("/root/b"); err != nil || len(bs) != 1 {
			t.Fatalf("/root/b after reopen = %v, %v", bs, err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointRoundTrip verifies a checkpointed journal
// replays from the checkpoint, not the seed.
func TestDurableCheckpointRoundTrip(t *testing.T) {
	h, dir := openDurable(t)
	roots, err := h.QueryString("/root")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.InsertElement(roots[0], 0, "pre"); err != nil {
		t.Fatal(err)
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.InsertElement(roots[0], 0, "post"); err != nil {
		t.Fatal(err)
	}
	want := h.XML()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(nil, WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.XML(); got != want {
		t.Fatalf("replayed XML = %s, want %s", got, want)
	}
	if s := r.Stats(); s.Journal.Generation != 1 {
		t.Fatalf("replayed generation = %d, want 1", s.Journal.Generation)
	}
}

// TestDurabilityString covers the mode names shown in stats output.
func TestDurabilityString(t *testing.T) {
	if s := Always.String(); s != "always" {
		t.Fatalf("Always = %q", s)
	}
	if s := None.String(); s != "none" {
		t.Fatalf("None = %q", s)
	}
	if s := Interval(time.Second).String(); s != "interval(1s)" {
		t.Fatalf("Interval = %q", s)
	}
}
