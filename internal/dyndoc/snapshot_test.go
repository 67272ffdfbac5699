package dyndoc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// TestSnapshotStorm hammers a shared document with batch writers and
// lock-free readers. Every writer inserts elements in PAIRS through
// one ApplyBatch, so any reader that ever observes an odd "//pair"
// count has seen a half-applied batch — the property the snapshot
// design makes impossible. Run under -race this also proves the
// reader path touches no unsynchronized mutable state.
func TestSnapshotStorm(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	const readers = 8
	const batchesEach = 60
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batchesEach; i++ {
				res, err := c.ApplyBatch([]Edit{
					{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "pair"},
					{Op: OpInsertElement, Parent: 0, Pos: 0, Name: "pair"},
				})
				if err != nil {
					errCh <- err
					return
				}
				// Every other batch, take the pair out again — also in
				// one batch — so deletes race the readers too.
				if i%2 == 1 {
					if _, err := c.ApplyBatch([]Edit{
						{Op: OpDeleteSubtree, Node: res[0].IDs[0]},
						{Op: OpDeleteSubtree, Node: res[1].IDs[0]},
					}); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := c.Count("//pair")
				if err != nil {
					errCh <- err
					return
				}
				if n%2 != 0 {
					errCh <- errors.New("reader observed an odd pair count: torn batch visible")
					return
				}
				// Snapshot consistency: the document a reader holds
				// must not move under it even while writers publish.
				if err := c.Snapshot(func(d *Document) error {
					before := d.Len()
					if _, err := d.QueryString("//pair"); err != nil {
						return err
					}
					if d.Len() != before {
						return errors.New("snapshot document changed during read")
					}
					return nil
				}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	// Let readers overlap the full write storm, then wind them down.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case err := <-errCh:
			close(stop)
			t.Fatal(err)
		case <-done:
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}
			return
		case <-time.After(time.Millisecond):
			if c.Generation() >= writers*batchesEach {
				close(stop)
				<-done
				select {
				case err := <-errCh:
					t.Fatal(err)
				default:
				}
				return
			}
		}
	}
}

// TestQueryDoesNotBlockOnWriter proves the read path acquires no
// mutex: a Query completes while a writer sits inside Update holding
// the writer lock.
func TestQueryDoesNotBlockOnWriter(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		writerDone <- c.Update(func(d *Document) error {
			close(entered)
			<-release
			_, _, err := d.InsertElement(0, 0, "late")
			return err
		})
	}()
	<-entered

	queryDone := make(chan error, 1)
	go func() {
		n, err := c.Count("//book")
		if err == nil && n != 3 {
			err = errors.New("unexpected book count before the write published")
		}
		queryDone <- err
	}()
	select {
	case err := <-queryDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query blocked behind a writer holding the update lock")
	}
	close(release)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if n, err := c.Count("//late"); err != nil || n != 1 {
		t.Fatalf("Count(//late) = %d, %v; want 1", n, err)
	}
}

// TestGenerationAndRollback checks that each successful write
// publishes exactly one new generation and a failed update publishes
// nothing at all.
func TestGenerationAndRollback(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != 0 {
		t.Fatalf("initial generation %d, want 0", g)
	}
	if _, _, err := c.InsertElement(0, 0, "a"); err != nil {
		t.Fatal(err)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("generation %d after one write, want 1", g)
	}
	xml := c.XML()
	boom := errors.New("boom")
	err = c.Update(func(d *Document) error {
		if _, _, err := d.InsertElement(0, 0, "phantom"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update returned %v, want boom", err)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("failed update advanced the generation to %d", g)
	}
	if c.XML() != xml {
		t.Fatal("failed update leaked state into the published snapshot")
	}
	if n, err := c.Count("//phantom"); err != nil || n != 0 {
		t.Fatalf("Count(//phantom) = %d, %v; want 0", n, err)
	}
}

// TestConcurrentBatchInsert checks the shared-document batch entry
// points work end to end.
func TestConcurrentBatchInsert(t *testing.T) {
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	fragments := []*xmltree.Node{
		shelfFragment(2),
		shelfFragment(1),
	}
	ids, relabeled, err := c.InsertTreeBatch(0, 0, fragments)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || relabeled != 0 {
		t.Fatalf("InsertTreeBatch = %d slices, %d relabeled", len(ids), relabeled)
	}
	if n, err := c.Count("/library/shelf"); err != nil || n != 4 {
		t.Fatalf("Count(/library/shelf) = %d, %v; want 4", n, err)
	}
	if g := c.Generation(); g != 1 {
		t.Fatalf("batch of %d fragments published %d generations, want 1", len(fragments), g)
	}
}

// TestRepackStorm runs child, sibling and positional reads on published
// snapshots while one writer edits through several repacks: a snapshot's
// tree reads its lists as runs of an id arena through a directory of
// chunks, both shared with every other snapshot; each edit's clone copies
// the chunk and the run it changes, and once the arena's dead slots
// outnumber its live ones the writer repacks the live runs into an arena
// and directory of its own. Every read holds the child lists to what the
// labels and the parent column say and to what the queries answer, in
// the same snapshot. Run under -race it also shows that no writer touches
// a run or a chunk a published tree reads.
func TestRepackStorm(t *testing.T) {
	const elems, edits, readers = 3_000, 1_200, 4
	c := sizedConcurrent(t, elems)
	frag := xmltree.NewElement("f")
	frag.AppendChild(xmltree.NewElement("g"))
	frag.AppendChild(xmltree.NewElement("g"))
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)
	var wg, started sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		started.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			read := func() bool {
				if err := c.Snapshot(func(d *Document) error { return checkSection(d, rng) }); err != nil {
					errCh <- err
					return false
				}
				reads.Add(1)
				return true
			}
			ok := read()
			started.Done()
			for ok {
				select {
				case <-stop:
					return
				default:
				}
				ok = read()
			}
		}(int64(r))
	}
	started.Wait()
	rng := rand.New(rand.NewSource(99))
	var inserted []int
	repacks := 0
	packing := func() (slots int) {
		_ = c.Snapshot(func(d *Document) error { slots, _ = d.Labeling().Tree().Packing(); return nil })
		return slots
	}
	slots := packing()
	for i := 0; i < edits; i++ {
		var err error
		switch {
		case i%5 == 4 && len(inserted) > 0:
			k := rng.Intn(len(inserted))
			_, err = c.DeleteSubtree(inserted[k])
			inserted = append(inserted[:k], inserted[k+1:]...)
		default:
			// Any element of the document but the root, so that the
			// root's children stay its sections; every other edit a
			// section, whose long run each edit copies, so that the
			// arena fills with dead runs and repacks.
			parent := 1 + rng.Intn(elems-1)
			var n int
			_ = c.Snapshot(func(d *Document) error {
				tr := d.Labeling().Tree()
				if i%2 == 0 {
					parent = tr.Child(0, rng.Intn(len(tr.Kids(0))))
				}
				n = len(tr.Kids(parent))
				return nil
			})
			var id int
			if i%7 == 6 {
				var ids []int
				ids, _, err = c.InsertTree(parent, rng.Intn(n+1), frag)
				if err == nil {
					id = ids[0]
				}
			} else {
				id, _, err = c.InsertElement(parent, rng.Intn(n+1), "x")
			}
			inserted = append(inserted, id)
		}
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		// Each snapshot is a clone of the one before with one edit,
		// which only adds to the arena's slots, but for a repack.
		s := packing()
		if s < slots {
			repacks++
		}
		slots = s
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	t.Logf("%d edits, %d of them repacked, under %d reads", edits, repacks, reads.Load())
	if repacks < 3 {
		t.Errorf("%d edits repacked %d times, want at least 3", edits, repacks)
	}
}

// checkSection reads one random section of d's sizedDoc through the
// tree's accessors, the labels and three queries, and fails where they
// disagree.
func checkSection(d *Document, rng *rand.Rand) error {
	tr := d.Labeling().Tree()
	k := rng.Intn(len(tr.Kids(0)))
	s := tr.Child(0, k)
	kids := tr.Kids(s)
	// xs are the section's x children, afterItem those after its first
	// item, beforeX its items before its first x.
	var xs, afterItem, beforeX []int
	item := false
	for i, v := range kids {
		if tr.Parent(v) != s || i > 0 && !d.Labeling().Before(kids[i-1], v) {
			return fmt.Errorf("section %d: child %d of %v is out of place", s, v, kids)
		}
		switch d.NameOf(v) {
		case "x":
			if item {
				afterItem = append(afterItem, v)
			}
			xs = append(xs, v)
		case "item":
			item = true
			if len(xs) == 0 {
				beforeX = append(beforeX, v)
			}
		}
	}
	if len(xs) == 0 {
		beforeX = nil
	}
	sec := fmt.Sprintf("//section[%d]", k+1)
	for q, want := range map[string][]int{
		sec + "/x":                            xs,
		sec + "/item[1]/following-sibling::x": afterItem,
		sec + "/x[1]/preceding-sibling::item": beforeX,
	} {
		got, err := d.QueryString(q)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s: %v, the tree says %v", q, got, want)
		}
	}
	return nil
}
