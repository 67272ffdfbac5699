package dyndoc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/pagestore"
	"repro/internal/store"
	"repro/internal/xmltree"
)

// TestPlannedQueryStorm is the planned-query counterpart of
// TestSnapshotStorm: readers evaluate through the plan/result cache
// (Concurrent.Query) and render EXPLAIN reports while writers churn
// snapshots, with GOMAXPROCS raised so the partitioned join path can
// actually fan out under the race detector. Writers insert and delete
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
	// The reader queries cover all three planner strategies plus the
	// axis fallback, all hammering one shared plan/result cache.
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
			for !stop.Load() {
				g0 := c.Generation()
				got, err := c.QueryRendered(query, render)
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
