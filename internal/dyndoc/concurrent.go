package dyndoc

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpath/plan"
)

// Snapshot-concurrency metrics: how often a writer published a new
// snapshot, and how many generations behind the published head a
// reader's snapshot was by the time its query finished (0 = the
// reader saw the latest state; >0 = writers published during the
// read, which lock-free readers tolerate by design).
var (
	mSnapshotSwaps = metrics.Default.Counter("dyndoc_snapshot_swaps_total")
	mStaleness     = metrics.Default.Histogram("dyndoc_reader_staleness_gens", metrics.LinearBuckets(0, 1, 16))
)

// snapshot is one immutable published state of a shared document: the
// document queries run against, plus the generation that produced it.
// Nothing reachable from a published snapshot is ever mutated again —
// writers build the next snapshot on a clone and publish it with one
// atomic pointer swap — so readers traverse it without any
// synchronization.
type snapshot struct {
	d   *Document
	gen uint64
}

// Concurrent wraps a Document for shared use with copy-on-write
// snapshots. Queries are lock-free: they load the latest snapshot
// with one atomic pointer read and ask its immutable document, so no
// reader ever blocks behind a writer. Writers serialize on a mutex,
// clone the current document, apply their edits to the private clone
// and publish it as the next snapshot; a reader racing a publish simply
// keeps the previous complete snapshot for the rest of its query. The
// zero value is not usable — construct with NewConcurrent or
// ParseConcurrent.
type Concurrent struct {
	mu   sync.Mutex // serializes writers; never taken on the query path
	snap atomic.Pointer[snapshot]
	hook CommitHook // vet:guardedby mu // journaling hook; nil when the document is not journaled

	// Watch state (see watch.go). Lock order: c.mu before wmu — a
	// publish wakes the dispatcher under both; the dispatcher only ever
	// takes wmu, so it can never hold up a writer.
	wmu         sync.Mutex
	watchers    map[*watcher]struct{} // vet:guardedby wmu
	wcond       *sync.Cond            // vet:guardedby wmu
	kicked      bool                  // vet:guardedby wmu // a dispatcher round is wanted
	dispatching bool                  // vet:guardedby wmu
}

// CommitHook intercepts every structured edit batch on its way to
// publication — the seam a write-ahead journal attaches through. It
// runs under the writer mutex, after the batch has been applied to
// the private clone and before the snapshot is published, so the
// journal's append order is exactly the publication order. Returning
// an error vetoes the batch: nothing is published and the caller gets
// the error. The returned wait function, if non-nil, is called after
// publication with the writer mutex released; the edit call does not
// return success until it does — this is where a group-commit
// pipeline parks the caller until its batch is durable, without
// serializing fsyncs behind the writer mutex.
type CommitHook func(edits []Edit, results []EditResult) (wait func() error, err error)

// SetCommitHook installs the commit hook. Install it once, right
// after construction and before the document is shared; a nil hook
// restores plain un-journaled operation.
func (c *Concurrent) SetCommitHook(h CommitHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = h
}

// ErrRawUpdate reports an Update(fn) or Reset call on a journaled
// document: neither an opaque function nor a wholesale replacement can
// be written to the edit journal, so it could never be replayed. Use
// ApplyBatch or the typed edit methods.
var ErrRawUpdate = errors.New("dyndoc: raw Update or Reset cannot be journaled; use ApplyBatch or the typed edit methods")

// NewConcurrent wraps doc under the given builder.
func NewConcurrent(doc *xmltree.Document, build scheme.Builder) (*Concurrent, error) {
	d, err := New(doc, build)
	if err != nil {
		return nil, err
	}
	return NewConcurrentFrom(d)
}

// ParseConcurrent parses XML text into a shared live document.
func ParseConcurrent(text string, build scheme.Builder) (*Concurrent, error) {
	d, err := Parse(text, build)
	if err != nil {
		return nil, err
	}
	return NewConcurrentFrom(d)
}

// NewConcurrentFrom wraps an already-built live document — the
// constructor journal recovery uses after Replay has rebuilt the
// document. The caller must not touch d afterwards; the Concurrent
// owns it. The error is always nil.
func NewConcurrentFrom(d *Document) (*Concurrent, error) {
	c := &Concurrent{}
	c.snap.Store(&snapshot{d: d})
	return c, nil
}

// load returns the latest published snapshot: one atomic pointer
// read, the whole synchronization cost of the query path.
func (c *Concurrent) load() *snapshot { return c.snap.Load() }

// Generation returns the published snapshot generation, which
// increases by one per successful write.
func (c *Concurrent) Generation() uint64 { return c.load().gen }

// Len returns the live node count.
func (c *Concurrent) Len() int { return c.load().d.Len() }

// Relabeled returns the cumulative re-label count.
func (c *Concurrent) Relabeled() int64 { return c.load().d.Relabeled() }

// Name returns the element name of a live node id.
func (c *Concurrent) Name(id int) (string, error) { return c.load().d.Name(id) }

// XML serialises the latest published snapshot.
func (c *Concurrent) XML() string { return c.load().d.XML() }

// observeStaleness records how far publication moved past s meanwhile.
func (c *Concurrent) observeStaleness(s *snapshot) {
	mStaleness.Observe(float64(c.load().gen - s.gen))
}

// Query evaluates a parsed path expression against the latest
// published snapshot, lock-free. The snapshots of one Concurrent share
// their documents' plan and result cache (Document.Query), so an answer
// computed on one snapshot serves every later one whose edits touched
// no element the query reads.
func (c *Concurrent) Query(q *xpath.Query) ([]int, error) {
	s := c.load()
	defer c.observeStaleness(s)
	return s.d.Query(q)
}

// Explain is Document.Explain on the latest published snapshot, whose
// generation the report carries.
func (c *Concurrent) Explain(path string) (*plan.Report, error) {
	s := c.load()
	rep, err := s.d.Explain(path)
	if err != nil {
		return nil, err
	}
	rep.Generation, rep.Snapshot = s.gen, true
	return rep, nil
}

// QueryString is Document.QueryString on the latest published snapshot.
func (c *Concurrent) QueryString(path string) ([]int, error) {
	s := c.load()
	defer c.observeStaleness(s)
	return s.d.QueryString(path)
}

// Count is Document.Count on the latest published snapshot.
func (c *Concurrent) Count(path string) (int, error) {
	s := c.load()
	defer c.observeStaleness(s)
	return s.d.Count(path)
}

// QueryRendered is Document.QueryRendered on the latest snapshot.
func (c *Concurrent) QueryRendered(path string, render func(ids []int) []byte) ([]byte, error) {
	s := c.load()
	defer c.observeStaleness(s)
	return s.d.QueryRendered(path, render)
}

// updateLocked is the one writer path: it clones the current
// snapshot's document, applies fn to the clone and publishes the
// result as the next snapshot. When fn fails nothing is published, so
// readers never observe a partially applied edit. The caller holds
// the writer mutex and has decided under it how the edit is journaled,
// if at all: checking the hook outside the critical section would let
// a SetCommitHook racing in between slip an unjournaled edit past the
// journal.
//
// vet:holds c.mu
func (c *Concurrent) updateLocked(fn func(d *Document) error) error {
	cur := c.load()
	next, err := cur.d.Clone()
	if err != nil {
		return err
	}
	if err := fn(next); err != nil {
		return err
	}
	c.publishLocked(cur, next)
	return nil
}

// publishLocked publishes next as the successor of snapshot cur and
// wakes the watch dispatcher. It must run under the writer mutex so
// publication order is edit order.
//
// vet:holds c.mu
func (c *Concurrent) publishLocked(cur *snapshot, next *Document) {
	c.snap.Store(&snapshot{d: next, gen: cur.gen + 1})
	mSnapshotSwaps.Inc()
	c.wake()
}

// applyEdits is the structured writer path every typed edit method
// routes through: on a clone, apply the batch, offer it to the commit
// hook (which may veto it), publish one snapshot, then — with the
// writer mutex released — wait for the hook's durability
// acknowledgment. A batch is therefore visible to readers the moment it
// is published but only reported successful once the journal (if any)
// acknowledges it; an error from the wait still returns the results,
// because the edit is applied in memory.
func (c *Concurrent) applyEdits(edits []Edit) ([]EditResult, error) {
	var out []EditResult
	var wait func() error
	c.mu.Lock()
	hook := c.hook
	err := c.updateLocked(func(d *Document) error {
		var err error
		if out, err = d.ApplyBatch(edits); err != nil || hook == nil {
			return err
		}
		wait, err = hook(edits, out)
		return err
	})
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// InsertElement inserts a fresh element and publishes a new snapshot.
func (c *Concurrent) InsertElement(parent, pos int, name string) (int, int, error) {
	res, err := c.applyEdits([]Edit{{Op: OpInsertElement, Parent: parent, Pos: pos, Name: name}})
	if err != nil {
		return 0, 0, err
	}
	return res[0].IDs[0], res[0].Relabeled, nil
}

// InsertTree inserts a fragment copy and publishes a new snapshot.
func (c *Concurrent) InsertTree(parent, pos int, fragment *xmltree.Node) ([]int, int, error) {
	res, err := c.applyEdits([]Edit{{Op: OpInsertTree, Parent: parent, Pos: pos, Fragment: fragment}})
	if err != nil {
		return nil, 0, err
	}
	return res[0].IDs, res[0].Relabeled, nil
}

// InsertTreeBatch inserts the fragments as consecutive children of
// parent in one batch: one OpInsertTree per fragment, which
// Document.ApplyBatch labels as one run (see Document.InsertTreeBatch),
// under one clone and one snapshot.
func (c *Concurrent) InsertTreeBatch(parent, pos int, fragments []*xmltree.Node) ([][]int, int, error) {
	edits := make([]Edit, len(fragments))
	for k, f := range fragments {
		edits[k] = Edit{Op: OpInsertTree, Parent: parent, Pos: pos + k, Fragment: f}
	}
	res, err := c.ApplyBatch(edits)
	if res == nil {
		return nil, 0, err
	}
	ids := make([][]int, len(res))
	relabeled := 0
	for k, r := range res {
		ids[k] = r.IDs
		relabeled += r.Relabeled
	}
	return ids, relabeled, err
}

// DeleteSubtree removes a subtree and publishes a new snapshot.
func (c *Concurrent) DeleteSubtree(id int) (int, error) {
	res, err := c.applyEdits([]Edit{{Op: OpDeleteSubtree, Node: id}})
	if err != nil {
		return 0, err
	}
	return res[0].Removed, nil
}

// ApplyBatch applies the edits against one clone and publishes a
// single snapshot: readers observe none or all of the batch, and the
// clone cost is paid once per batch instead of once per edit.
func (c *Concurrent) ApplyBatch(edits []Edit) ([]EditResult, error) {
	if len(edits) == 0 {
		return nil, nil
	}
	return c.applyEdits(edits)
}

// Snapshot runs fn against the latest published snapshot without any
// locking. The document fn receives is immutable and stays consistent
// for as long as fn holds it, even while writers publish newer
// snapshots; fn must only read it.
func (c *Concurrent) Snapshot(fn func(d *Document) error) error {
	return fn(c.load().d)
}

// Update runs fn against a private clone of the document and
// publishes the clone as one new snapshot when fn succeeds, making
// composite edits atomic with respect to readers. When fn returns an
// error nothing is published and the shared document is unchanged —
// how a follower applies a run of its leader's batches, all or none.
// On a journaled document Update fails with ErrRawUpdate: an opaque
// mutation cannot be recorded for replay. The hook check and the
// update run under one critical section, so a SetCommitHook that
// completes before this call's turn at the writer mutex reliably
// rejects it — the raw mutation can never slip past a just-installed
// journal.
func (c *Concurrent) Update(fn func(d *Document) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hook != nil {
		return ErrRawUpdate
	}
	return c.updateLocked(fn)
}

// Locked runs fn against the currently published document while
// holding the writer mutex, so no edit can apply or publish while fn
// runs. fn must only read the document — this is how a checkpoint
// captures a state that is exactly "everything journaled so far".
func (c *Concurrent) Locked(fn func(d *Document) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn(c.load().d)
}

// Reset replaces the shared document wholesale with d — how a follower
// adopts a leader's new checkpoint generation, where no edit list
// connects the old state to the new. The replacement publishes as the
// next generation and takes over the query cache; its own edit tokens
// keep its answers apart from the old state's. The caller must not
// touch d afterwards. On a journaled document Reset fails with
// ErrRawUpdate.
func (c *Concurrent) Reset(d *Document) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hook != nil {
		return ErrRawUpdate
	}
	cur := c.load()
	d.cache = cur.d.cache
	c.publishLocked(cur, d)
	return nil
}
