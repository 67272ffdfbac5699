package dyndoc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/pagestore"
	"repro/internal/store"
	"repro/internal/xmltree"
	"repro/internal/xpath/plan"
)

// TestPlannedQueryStorm is the planned-query counterpart of
// TestSnapshotStorm: readers evaluate through the plan/result cache
// (Concurrent.Query) and render EXPLAIN reports while writers churn
// snapshots, with GOMAXPROCS raised so its readers and writers run in
// parallel under the race detector. Writers insert and delete
// "pair" elements strictly in pairs, so any odd count — from Query or
// from an Explain's match counter — means a reader saw a torn
// snapshot. (An answer served at a stamp it was not computed at is even
// too: the rendered and star storms below, whose oracles know each
// generation's answer, are the ones that catch that.) The test
// also checks the published generation never moves backwards from any
// goroutine's point of view.
func TestPlannedQueryStorm(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	const writers = 3
	const readers = 6
	const batchesEach = 50
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
	// The reader queries cover both planner strategies, on the
	// child/descendant spine and off it, all hammering one shared
	// plan/result cache.
	queries := []string{"//pair", "/library//pair", "/library/*/book", "//shelf/parent::library"}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if g := c.Generation(); g < lastGen {
					errCh <- fmt.Errorf("generation moved backwards: %d after %d", g, lastGen)
					return
				} else {
					lastGen = g
				}
				ids, err := c.QueryString(queries[(r+i)%len(queries)])
				if err != nil {
					errCh <- err
					return
				}
				_ = ids
				n, err := c.Count("//pair")
				if err != nil {
					errCh <- err
					return
				}
				if n%2 != 0 {
					errCh <- errors.New("reader observed an odd pair count: torn batch or cross-generation cache hit")
					return
				}
				rep, err := c.Explain("//pair")
				if err != nil {
					errCh <- err
					return
				}
				if rep.Matches%2 != 0 {
					errCh <- fmt.Errorf("explain measured an odd pair count %d at generation %d", rep.Matches, rep.Generation)
					return
				}
			}
		}()
	}

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

// TestPlannedQueryStormRendered is the storm for the memoised
// renderings (Concurrent.QueryRendered): editors publish snapshots
// while readers fetch the rendered reply of one query. Each editor
// evaluates the query with the naive engine on its private clone,
// before publishing, and files the answer under the generation the
// clone is about to become — so the oracle for a generation exists
// before any reader can be served from it. A reader brackets its call
// with two Generation reads; what it gets must be the rendering of the
// oracle's ids at one of the generations in between. A rendering
// served where the engine computes another stamp than its entry's (the
// query reads the one name every edit touches), or bytes written after
// they were shared, fail that (and -race reports the write).
func TestPlannedQueryStormRendered(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	const editors, readers, editsEach = 3, 6, 60
	const query = "//pair"
	render := func(ids []int) []byte { return fmt.Appendf(nil, "%d %v", len(ids), ids) }

	var oracle sync.Map // generation -> rendered oracle ids
	oracle.Store(uint64(0), string(render(nil)))
	// The editors start once every reader has been served a reply, so
	// that edits that finish before a loaded machine schedules the
	// readers cannot leave them unserved.
	var editing, reading, ready sync.WaitGroup
	ready.Add(readers)
	errCh := make(chan error, editors+readers)
	var stop atomic.Bool
	var served atomic.Int64
	for e := 0; e < editors; e++ {
		editing.Add(1)
		go func() {
			defer editing.Done()
			ready.Wait()
			var mine []int
			for i := 0; i < editsEach; i++ {
				err := c.Update(func(d *Document) error {
					if len(mine) > 4 { // keep the document small: retire the oldest
						if _, err := d.DeleteSubtree(mine[0]); err != nil {
							return err
						}
						mine = mine[1:]
					}
					id, _, err := d.InsertElement(0, i%2, "pair")
					if err != nil {
						return err
					}
					mine = append(mine, id)
					ids, err := naive(d, query)
					if err != nil {
						return err
					}
					oracle.Store(c.Generation()+1, string(render(ids)))
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			i := 0
			defer func() {
				if i < 1 {
					ready.Done() // failed before it was ready
				}
			}()
			for ; !stop.Load(); i++ {
				if i == 1 {
					ready.Done()
				}
				g0 := c.Generation()
				got, err := c.QueryRendered(query, plan.Rendering{Render: render, Parse: parseBracketed})
				g1 := c.Generation()
				if err != nil {
					errCh <- err
					return
				}
				ok := false
				for g := g0; g <= g1 && !ok; g++ {
					want, _ := oracle.Load(g)
					ok = want == string(got)
				}
				served.Add(1)
				if !ok {
					errCh <- fmt.Errorf("served %q between generations %d and %d; the oracle has it at neither", got, g0, g1)
					return
				}
			}
		}()
	}
	editing.Wait()
	stop.Store(true)
	reading.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	t.Logf("%d replies served across %d generations", served.Load(), editors*editsEach)
	if served.Load() < readers {
		t.Errorf("only %d replies were served: the readers did not run beside the editors", served.Load())
	}
}

// TestStarQueryStorm is the storm for the index's all-elements memo,
// which nothing maintains, on both backends: the first * name test on a
// snapshot fills it from a walk of that snapshot, readers of one
// snapshot may fill it at the same time — on the paged backend they call
// back into the document's walk under the backend's mutex — and the edit
// that follows a clone forgets it on the clone alone. Editors publish
// snapshots; each evaluates both queries with the naive engine before
// publishing — on a clone of its private clone, so that what it
// publishes still has the memo to fill — and files the answers under
// the generation about to be published.
// Readers ask through the planner and its cache, or evaluate on
// whatever snapshot they load; what they get must be the oracle's
// answer at a generation between two Generation reads.
func TestStarQueryStorm(t *testing.T) {
	paged := func(b store.Binding) (store.Backend, error) {
		return store.OpenPaged(t.TempDir(), pagestore.MinCachePages, b)
	}
	for name, factory := range map[string]StoreFactory{"slice": nil, "paged": paged} {
		t.Run(name, func(t *testing.T) { starQueryStorm(t, factory) })
	}
}

func starQueryStorm(t *testing.T, factory StoreFactory) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	doc, err := xmltree.ParseString(seedDoc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewWithStore(doc, containment.Build(keys.VCDBS()), factory)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConcurrentFrom(d)
	if err != nil {
		t.Fatal(err)
	}
	const editors, readers, editsEach = 3, 6, 60
	queries := []string{"//*", "/library/*"}
	type at struct {
		gen   uint64
		query string
	}
	var oracle sync.Map // at -> fmt.Sprint of the naive engine's ids
	file := func(d *Document, gen uint64) error {
		probe, err := d.Clone()
		if err != nil {
			return err
		}
		for _, q := range queries {
			ids, err := naive(probe, q)
			if err != nil {
				return err
			}
			oracle.Store(at{gen, q}, fmt.Sprint(ids))
		}
		return nil
	}
	if err := c.Snapshot(func(d *Document) error { return file(d, 0) }); err != nil {
		t.Fatal(err)
	}
	var editing, reading sync.WaitGroup
	errCh := make(chan error, editors+readers)
	var stop atomic.Bool
	var served atomic.Int64
	for e := 0; e < editors; e++ {
		editing.Add(1)
		go func() {
			defer editing.Done()
			var mine []int
			for i := 0; i < editsEach; i++ {
				err := c.Update(func(d *Document) error {
					if len(mine) > 4 { // keep the document small: retire the oldest
						if _, err := d.DeleteSubtree(mine[0]); err != nil {
							return err
						}
						mine = mine[1:]
					}
					ids, _, err := d.InsertTree(0, i%2, speechFragment(i))
					if err != nil {
						return err
					}
					mine = append(mine, ids[0])
					return file(d, c.Generation()+1)
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for i := r; !stop.Load(); i++ {
				q := queries[i%len(queries)]
				var ids []int
				var err error
				g0 := c.Generation()
				if r%2 == 0 {
					ids, err = c.QueryString(q)
				} else {
					err = c.Snapshot(func(d *Document) error { ids, err = d.QueryString(q); return err })
				}
				g1 := c.Generation()
				if err != nil {
					errCh <- err
					return
				}
				got, ok := fmt.Sprint(ids), false
				for g := g0; g <= g1 && !ok; g++ {
					want, _ := oracle.Load(at{g, q})
					ok = want == got
				}
				served.Add(1)
				if !ok {
					errCh <- fmt.Errorf("%s = %s between generations %d and %d; the naive engine has it at neither", q, got, g0, g1)
					return
				}
			}
		}()
	}
	editing.Wait()
	stop.Store(true)
	reading.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	t.Logf("%d answers served across %d generations", served.Load(), editors*editsEach)
	if served.Load() < readers {
		t.Errorf("only %d answers were served: the readers did not run beside the editors", served.Load())
	}
}

// TestBorrowedAnswerStorm is the storm for the borrowed-answer contract:
// Query and QueryString return the result cache's own ids, which a
// caller may hold across later publishes. A writer inserts and deletes
// while readers each keep their last few answers; the writer files
// every generation's answers, by the naive engine, before publishing
// it, and a watcher re-reads the first query at every publish. Every
// answer a reader holds, each time it looks again and at the end, must
// be the oracle's at a generation between the two Generation reads
// that bracketed its call: an answer that changed while held fails,
// and -race reports a write to one, such as a watcher sorting it.
func TestBorrowedAnswerStorm(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	c, err := ParseConcurrent(seedDoc, containment.Build(keys.VCDBS()))
	if err != nil {
		t.Fatal(err)
	}
	const readers, edits, held = 4, 300, 8
	queries := []string{"//pair", "/library/*", "//shelf/book"}
	answers := func(d *Document) ([][]int, error) {
		out := make([][]int, len(queries))
		for i, q := range queries {
			ids, err := naive(d, q)
			if err != nil {
				return nil, err
			}
			out[i] = ids
		}
		return out, nil
	}
	var oracle sync.Map // generation -> [][]int, one answer per query
	first, err := answers(c.load().d)
	if err != nil {
		t.Fatal(err)
	}
	oracle.Store(uint64(0), first)

	type borrowed struct {
		query  int
		ids    []int
		g0, g1 uint64
	}
	check := func(b borrowed) error {
		for g := b.g0; g <= b.g1; g++ {
			if want, ok := oracle.Load(g); ok && slices.Equal(want.([][]int)[b.query], b.ids) {
				return nil
			}
		}
		return fmt.Errorf("%s: holding %v from between generations %d and %d; the oracle has it at neither",
			queries[b.query], b.ids, b.g0, b.g1)
	}
	notes, cancel, err := c.Watch(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range notes {
		}
	}()
	defer cancel()
	var reading, started sync.WaitGroup
	errCh := make(chan error, readers+1)
	var stop atomic.Bool
	var served atomic.Int64
	for r := 0; r < readers; r++ {
		reading.Add(1)
		started.Add(1)
		go func(r int) {
			defer reading.Done()
			// The writer waits for every reader's first answer (or its
			// exit), so that no reader starts only after the last edit.
			ready := sync.OnceFunc(started.Done)
			defer ready()
			var mine []borrowed
			for i := r; !stop.Load(); i++ {
				q := i % len(queries)
				g0 := c.Generation()
				ids, err := c.QueryString(queries[q])
				g1 := c.Generation()
				if err != nil {
					errCh <- err
					return
				}
				served.Add(1)
				ready()
				if len(mine) == held {
					mine = mine[1:]
				}
				mine = append(mine, borrowed{q, ids, g0, g1})
				for _, b := range mine {
					if err := check(b); err != nil {
						errCh <- err
						return
					}
				}
			}
			for _, b := range mine {
				if err := check(b); err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}
	started.Wait()
	var pairs []int
	for i := 0; i < edits; i++ {
		err := c.Update(func(d *Document) error {
			if len(pairs) > 6 || (len(pairs) > 0 && i%3 == 0) {
				if _, err := d.DeleteSubtree(pairs[0]); err != nil {
					return err
				}
				pairs = pairs[1:]
			}
			id, _, err := d.InsertElement(0, i%2, "pair")
			if err != nil {
				return err
			}
			pairs = append(pairs, id)
			next, err := answers(d)
			if err != nil {
				return err
			}
			oracle.Store(c.Generation()+1, next)
			return nil
		})
		if err != nil {
			errCh <- err
			break
		}
	}
	stop.Store(true)
	reading.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	t.Logf("%d answers borrowed across %d generations", served.Load(), c.Generation())
	if served.Load() < readers {
		t.Errorf("only %d answers were served: the readers did not run beside the writer", served.Load())
	}
}
