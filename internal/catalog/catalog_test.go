package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	dynxml "repro"
)

const seed = "<root><a></a></root>"

func openTest(t *testing.T, cfg Config) *Catalog {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// countX returns how many /root/x elements the pinned document holds.
func countX(t *testing.T, p *Pin) int {
	t.Helper()
	n, err := p.Handle().Count("/root/x")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// addX inserts n fresh x elements under the document root.
func addX(t *testing.T, p *Pin, n int) {
	t.Helper()
	roots, err := p.Handle().QueryString("/root")
	if err != nil || len(roots) != 1 {
		t.Fatalf("roots=%v err=%v", roots, err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := p.Handle().InsertElement(roots[0], 0, "x"); err != nil {
			t.Fatal(err)
		}
	}
}

// waitEvicted blocks until the named document is no longer resident;
// eviction is asynchronous.
func waitEvicted(t *testing.T, c *Catalog, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Resident(name) {
		if time.Now().After(deadline) {
			t.Fatalf("%s still resident after 10s", name)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"a", "doc-1", "A.b_c", "x9"} {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false, want true", name)
		}
	}
	long := make([]byte, 129)
	for i := range long {
		long[i] = 'a'
	}
	for _, name := range []string{"", ".", "..", ".hidden", "a/b", "../up", "a b", "a\x00b", string(long)} {
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true, want false", name)
		}
	}
}

func TestCreateAcquireLifecycle(t *testing.T) {
	c := openTest(t, Config{})

	if _, err := c.Acquire("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire(missing) = %v, want ErrNotFound", err)
	}
	if _, err := c.Acquire("../evil"); !errors.Is(err, ErrBadName) {
		t.Fatalf("Acquire(../evil) = %v, want ErrBadName", err)
	}

	p, err := c.Create("alpha", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	addX(t, p, 3)
	p.Release()
	p.Release() // idempotent

	if _, err := c.Create("alpha", seed, ""); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Create = %v, want ErrExists", err)
	}

	// Re-acquire hits the still-resident handle.
	p2, err := c.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := countX(t, p2); got != 3 {
		t.Fatalf("resident reacquire sees %d edits, want 3", got)
	}
	p2.Release()

	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "alpha" {
		t.Fatalf("Names() = %v, want [alpha]", names)
	}
	st := c.Stats()
	if st.ResidentDocs != 1 || st.ResidentBytes <= 0 {
		t.Fatalf("Stats() = %+v, want one resident doc with a positive estimate", st)
	}
}

// TestEvictionRoundTrip is the satellite regression test: every
// acknowledged edit survives a budget eviction and the lazy replay
// that follows — eviction must be invisible to clients.
// TestUnfinishedCreate: a kill inside a document's first Create leaves
// a strict prefix of ckpt-00000000 alone in its directory. That used to
// wedge the name — Create answered ErrExists because the directory
// existed, Acquire a 500 — although nothing in it was acknowledged.
// The name is absent to Acquire and free to Create; a directory that
// holds a journal without a usable checkpoint stays an error for both.
func TestUnfinishedCreate(t *testing.T) {
	root := t.TempDir()
	c := openTest(t, Config{Root: root})
	p, err := c.Create("model", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	if err := c.Evict("model"); err != nil {
		t.Fatal(err)
	}
	var ckpt []byte
	for _, name := range []string{"ckpt-00000000", "ckpt-00000001"} {
		if b, err := os.ReadFile(filepath.Join(root, "model", name)); err == nil {
			ckpt = b
		}
	}
	if ckpt == nil {
		t.Fatal("evicted document left no checkpoint")
	}
	plant := func(doc, file string, content []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(root, doc), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, doc, file), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, cut := range []int{0, 5, 20, len(ckpt) - 3} {
		name := fmt.Sprintf("cut%d", cut)
		plant(name, "ckpt-00000000", ckpt[:cut])
		if _, err := c.Acquire(name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Acquire = %v, want ErrNotFound", name, err)
		}
		p, err := c.Create(name, seed, "")
		if err != nil {
			t.Fatalf("%s: Create over the residue: %v", name, err)
		}
		addX(t, p, 2)
		p.Release()
		if err := c.Evict(name); err != nil {
			t.Fatal(err)
		}
		p, err = c.Acquire(name)
		if err != nil {
			t.Fatalf("%s: Acquire after Create: %v", name, err)
		}
		if got := countX(t, p); got != 2 {
			t.Fatalf("%s: replay sees %d edits, want 2", name, got)
		}
		p.Release()
	}
	plant("later", "ckpt-00000001", ckpt[:len(ckpt)-3])
	if _, err := c.Create("later", seed, ""); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over a lone incomplete ckpt-1 = %v, want ErrExists", err)
	}
	if _, err := c.Acquire("later"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire of a lone incomplete ckpt-1 = %v, want a damaged-journal error", err)
	}
}

func TestEvictionRoundTrip(t *testing.T) {
	c := openTest(t, Config{MaxOpen: 1})

	p, err := c.Create("alpha", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	const edits = 25
	addX(t, p, edits)
	p.Release()

	// A second resident document overflows MaxOpen=1 and pushes the
	// idle alpha out in the background.
	q, err := c.Create("beta", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	q.Release()
	waitEvicted(t, c, "alpha")

	// Reopening replays the journal: every acknowledged edit is back.
	p, err = c.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := countX(t, p); got != edits {
		t.Fatalf("after eviction and replay alpha has %d edits, want %d", got, edits)
	}
	// Edits keep working on the replayed handle and survive an
	// explicit eviction too.
	addX(t, p, 5)
	p.Release()
	if err := c.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	if c.Resident("alpha") {
		t.Fatal("alpha resident after explicit Evict")
	}
	if err := c.Evict("alpha"); err != nil {
		t.Fatalf("Evict of a non-resident doc must be a no-op, got %v", err)
	}
	p, err = c.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := countX(t, p); got != edits+5 {
		t.Fatalf("after second replay alpha has %d edits, want %d", got, edits+5)
	}
	p.Release()
}

// TestAcquireSingleflight verifies concurrent Acquires of one absent
// document share a single replay and end up pinning the same handle.
func TestAcquireSingleflight(t *testing.T) {
	c := openTest(t, Config{})
	p, err := c.Create("alpha", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	addX(t, p, 2)
	p.Release()
	if err := c.Evict("alpha"); err != nil {
		t.Fatal(err)
	}
	opens0 := int(mOpens.Value())

	const callers = 8
	handles := make([]*dynxml.Handle, callers)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Acquire("alpha")
			if err != nil {
				errs <- err
				return
			}
			if got := countX(t, p); got != 2 {
				errs <- fmt.Errorf("caller %d sees %d edits, want 2", i, got)
			}
			handles[i] = p.Handle()
			p.Release()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 1; i < callers; i++ {
		if handles[i] != handles[0] {
			t.Fatalf("caller %d got a different handle: opens were not shared", i)
		}
	}
	if opened := int(mOpens.Value()) - opens0; opened != 1 {
		t.Fatalf("%d opens for %d concurrent acquires, want 1", opened, callers)
	}
}

// TestEvictAcquireRace hammers eviction against acquisition: a pin
// obtained while evictions fly must always see a live handle with the
// full edit history.
func TestEvictAcquireRace(t *testing.T) {
	c := openTest(t, Config{})
	p, err := c.Create("alpha", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	addX(t, p, 4)
	p.Release()

	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := c.Evict("alpha"); err != nil {
				errs <- fmt.Errorf("evict round %d: %w", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p, err := c.Acquire("alpha")
			if err != nil {
				errs <- fmt.Errorf("acquire round %d: %w", i, err)
				return
			}
			n, err := p.Handle().Count("/root/x")
			// ErrClosed can surface when an explicit Evict retires the
			// handle between our pin and the call; the pin must still
			// release cleanly and the next round must replay.
			if err != nil && !errors.Is(err, dynxml.ErrClosed) {
				errs <- fmt.Errorf("count round %d: %w", i, err)
			} else if err == nil && n != 4 {
				errs <- fmt.Errorf("count round %d: %d edits, want 4", i, n)
			}
			p.Release()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCatalogClose(t *testing.T) {
	root := t.TempDir()
	c, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Create("alpha", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	addX(t, p, 7)
	p.Release()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, err := c.Acquire("alpha"); !errors.Is(err, ErrCatalogClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrCatalogClosed", err)
	}

	// A fresh catalog over the same root serves the checkpointed state.
	c2, err := Open(Config{Root: root})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	p, err = c2.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := countX(t, p); got != 7 {
		t.Fatalf("reopened catalog sees %d edits, want 7", got)
	}
	p.Release()
}

// TestBudgetChargesFootprint is the accounting regression test: the
// budget must charge Handle.MemoryFootprint — refreshed on release as
// documents grow — not a stale nodes×constant estimate. A document
// edited past the budget while pinned is evicted as soon as it is
// released.
func TestBudgetChargesFootprint(t *testing.T) {
	// Roomy enough for the seed document, far too small for 200 nodes.
	c := openTest(t, Config{MemBudget: 20_000})
	p, err := c.Create("alpha", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Handle().MemoryFootprint() > 20_000 {
		t.Fatal("seed document must fit the test budget")
	}
	p.Release()
	if !c.Resident("alpha") {
		t.Fatal("within-budget document must stay resident")
	}

	p, err = c.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	addX(t, p, 200)
	if fp := p.Handle().MemoryFootprint(); fp <= 20_000 {
		t.Fatalf("grown document footprint %d should exceed the budget", fp)
	}
	p.Release() // release refreshes the charge and triggers eviction
	waitEvicted(t, c, "alpha")

	// Eviction checkpointed; the replay serves every edit.
	p, err = c.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := countX(t, p); got != 200 {
		t.Fatalf("after budget eviction alpha has %d edits, want 200", got)
	}
	p.Release()
}

// TestPagedCatalog runs the catalog with paged label storage: the
// pages directory lives inside each document's journal directory, so
// replay must tolerate it, and edits must survive eviction exactly as
// on the slice backend.
func TestPagedCatalog(t *testing.T) {
	c := openTest(t, Config{MaxOpen: 1, PagedLabels: true, PageCache: 16})
	p, err := c.Create("alpha", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Handle().Stats().Storage.Backend; got != "paged" {
		t.Fatalf("catalog backend = %q, want paged", got)
	}
	addX(t, p, 30)
	p.Release()

	q, err := c.Create("beta", seed, "")
	if err != nil {
		t.Fatal(err)
	}
	q.Release()
	waitEvicted(t, c, "alpha")

	p, err = c.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Handle().Stats().Storage.Backend; got != "paged" {
		t.Fatalf("replayed catalog backend = %q, want paged", got)
	}
	if got := countX(t, p); got != 30 {
		t.Fatalf("after eviction and replay alpha has %d edits, want 30", got)
	}
	p.Release()
}
