package dyndoc

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/xmltree"
)

// TestSetCommitHookInstallRace is the regression test for the
// check-then-lock race on the commit hook: Update and InsertTreeBatch
// used to consult hookInstalled() (lock, check, unlock) and only then
// take the writer mutex for the actual edit, so a SetCommitHook racing
// into the gap let a raw update — or an InsertSubtrees bulk insert —
// publish without ever reaching the journal, silently losing the batch
// on replay. The fixed code decides the write path under the same
// critical section that applies and publishes.
//
// The test hammers both racy entry points from a pack of writers and
// repeatedly installs a counting hook mid-storm, checking the
// journaling invariant the race breaks: once SetCommitHook has
// returned, every later snapshot publication must have passed through
// the hook (raw Updates must be rejected with ErrRawUpdate instead of
// publishing). Because SetCommitHook serializes on the writer mutex,
// a writer that sneaked its stale no-hook decision past a queued
// install publishes an unhooked post-install generation, and the
// generation count overtakes the hook's call count. The document is
// deliberately tiny and the round count high: the pre-fix window is a
// few instructions wide, so the test leans on scheduler preemption
// landing inside it often enough across hundreds of installs. Run it
// under -race (it is wired into the ci.sh race stage by name).
func TestSetCommitHookInstallRace(t *testing.T) {
	const writers = 8
	rounds := 400
	if testing.Short() {
		rounds = 50
	}
	// Writers and installs run in parallel even on one CPU.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for round := 0; round < rounds; round++ {
		c, err := ParseConcurrent("<r><a></a></r>", containment.Build(keys.VCDBS()))
		if err != nil {
			t.Fatal(err)
		}
		var (
			stop      atomic.Bool
			wg        sync.WaitGroup
			hookCalls atomic.Int64
		)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					if (w+i)%2 == 0 {
						frag := xmltree.NewElement("x")
						if _, _, err := c.InsertTreeBatch(0, 0, []*xmltree.Node{frag}); err != nil {
							t.Error(err)
							return
						}
					} else {
						err := c.Update(func(d *Document) error {
							_, _, err := d.InsertElement(0, 0, "u")
							return err
						})
						if err != nil && !errors.Is(err, ErrRawUpdate) {
							t.Error(err)
							return
						}
					}
				}
			}(w)
		}
		// Let the storm queue writers up on the mutex, then install the
		// hook from the side, exactly like Open wiring a journal onto a
		// document that is already taking traffic.
		time.Sleep(200 * time.Microsecond)
		c.SetCommitHook(func(edits []Edit, results []EditResult) (func() error, error) {
			hookCalls.Add(1)
			return nil, nil
		})
		gen0 := c.Generation()
		time.Sleep(500 * time.Microsecond)
		stop.Store(true)
		wg.Wait()
		genEnd := c.Generation()
		if published := int64(genEnd - gen0); published > hookCalls.Load() {
			t.Fatalf("round %d: %d snapshots published after SetCommitHook returned, but the hook ran only %d times — an edit bypassed the journal",
				round, published, hookCalls.Load())
		}
	}
}
