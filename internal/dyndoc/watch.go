package dyndoc

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/xpath"
)

// Live query subscriptions. Watch(path) registers a query against a
// Concurrent document; after every published snapshot swap the edit
// batch is checked against the query and a coalesced Notification is
// pushed when the match set changed. The check never runs under the
// writer mutex — publication enqueues a (prev, next, delta) event and
// a dispatcher goroutine does the matching against the two immutable
// snapshots — so a slow or saturated watcher costs writers nothing.
//
// Queries whose steps are all predicate-free child/descendant axes
// ("spine" queries, e.g. /a/b or //act//line) are answered without
// re-evaluation: an inserted node matches iff its ancestor name chain
// threads through the spine, which the labeling's structural tree
// answers in O(depth × steps) per touched node — the prefix/containment
// check the paper's labels make cheap. Everything else (predicates,
// sibling axes) falls back to re-evaluating the query on the new
// snapshot through the shared plan cache and diffing result sets.
var (
	mWatchActive        = metrics.Default.Gauge("watch_watchers_active")
	mWatchEvents        = metrics.Default.Counter("watch_events_total")
	mWatchNotifications = metrics.Default.Counter("watch_notifications_total")
	mWatchCoalesced     = metrics.Default.Counter("watch_coalesced_total")
	mWatchRequeries     = metrics.Default.Counter("watch_requeries_total")
)

// maxNotifyIDs bounds how many concrete match ids one Notification
// carries; Added/Removed always count the full delta.
const maxNotifyIDs = 256

// watchChanBuf is the subscriber channel depth. One is enough — a
// receiver that lags gets deltas folded into the next Notification
// rather than a longer queue.
const watchChanBuf = 1

// Notification reports a change to a watched query's match set. When a
// receiver is slow, consecutive notifications coalesce: Batches counts
// how many published snapshots were folded in, Added/Removed accumulate
// across them, and Gen is the newest generation covered.
type Notification struct {
	// Gen is the newest snapshot generation folded into this
	// notification.
	Gen uint64 `json:"gen"`
	// Batches counts the published snapshots coalesced here.
	Batches int `json:"batches"`
	// Added and Removed count nodes that entered and left the match
	// set.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// IDs lists up to maxNotifyIDs newly matching node ids, valid in
	// the snapshot at Gen.
	IDs []int `json:"ids,omitempty"`
	// Requeried reports that the delta came from planner re-evaluation
	// (a non-spine query, a raw update, or a follower reset) rather
	// than the label-spine check.
	Requeried bool `json:"requeried,omitempty"`
}

// watchEvent is one published snapshot swap as the dispatcher sees it:
// both immutable snapshots plus the batch's id-level delta. inserted
// ids are valid in next; deletedRoots are subtree roots valid in prev.
// reset means the delta is unknown (raw Update or a follower snapshot
// reset) and every watcher must requery.
type watchEvent struct {
	prev, next   *snapshot
	inserted     []int
	deletedRoots []int
	reset        bool
}

// watcher is one registered subscription.
type watcher struct {
	id       int
	q        *xpath.Query
	sp       *spine           // nil → requery fallback
	last     map[int]struct{} // dispatcher-only: current match set
	sinceGen uint64           // events at or below this generation predate registration
	ch       chan Notification
	done     chan struct{}
	cancel   sync.Once

	mu        sync.Mutex
	cond      *sync.Cond    // vet:guardedby mu
	pending   *Notification // vet:guardedby mu // coalesced, undelivered delta
	cancelled bool          // vet:guardedby mu
}

// Watch registers path against the document and returns a channel of
// coalesced match-set changes plus a cancel function. The channel is
// closed after cancel. Registration evaluates the query once on
// non-spine paths to seed the diff baseline; events published before
// registration are never reported.
func (c *Concurrent) Watch(path string) (<-chan Notification, func(), error) {
	q, err := xpath.Parse(path)
	if err != nil {
		return nil, nil, err
	}
	w := &watcher{
		q:    q,
		sp:   compileSpine(q),
		ch:   make(chan Notification, watchChanBuf),
		done: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	s := c.load()
	w.sinceGen = s.gen
	if w.sp == nil {
		ids, err := s.d.Query(q)
		if err != nil {
			return nil, nil, err
		}
		w.last = make(map[int]struct{}, len(ids))
		for _, id := range ids {
			w.last[id] = struct{}{}
		}
	}
	startDispatch := false
	c.wmu.Lock()
	if c.watchers == nil {
		c.watchers = make(map[int]*watcher)
		c.wcond = sync.NewCond(&c.wmu)
	}
	c.nextWatch++
	w.id = c.nextWatch
	c.watchers[w.id] = w
	if !c.dispatching {
		c.dispatching = true
		startDispatch = true
	}
	c.wmu.Unlock()
	if startDispatch {
		go c.dispatchLoop()
	}
	mWatchActive.Add(1)
	go w.deliverLoop()
	cancelFn := func() {
		w.cancel.Do(func() {
			c.wmu.Lock()
			delete(c.watchers, w.id)
			c.wcond.Signal()
			c.wmu.Unlock()
			w.mu.Lock()
			w.cancelled = true
			w.cond.Signal()
			w.mu.Unlock()
			close(w.done)
			mWatchActive.Add(-1)
		})
	}
	return w.ch, cancelFn, nil
}

// Watchers returns the number of active subscriptions.
func (c *Concurrent) Watchers() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.watchers)
}

// notifyWatchersLocked enqueues one published swap for the dispatcher.
// It runs on the writer path under the writer mutex, so it only
// extracts the id-level delta and appends to the queue — O(batch), no
// matching, no channel sends.
//
// vet:holds c.mu
func (c *Concurrent) notifyWatchersLocked(prev, next *snapshot, edits []Edit, results []EditResult, reset bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(c.watchers) == 0 {
		return
	}
	ev := watchEvent{prev: prev, next: next, reset: reset}
	if !reset {
		for i, e := range edits {
			switch e.Op {
			case OpInsertElement, OpInsertTree:
				ev.inserted = append(ev.inserted, results[i].IDs...)
			case OpDeleteSubtree:
				ev.deletedRoots = append(ev.deletedRoots, e.Node)
			}
		}
	}
	c.wevents = append(c.wevents, ev)
	mWatchEvents.Inc()
	c.wcond.Signal()
}

// dispatchLoop drains the event queue, evaluating each event against
// every registered watcher. It exits when the last watcher cancels and
// is restarted by the next Watch.
func (c *Concurrent) dispatchLoop() {
	c.wmu.Lock()
	for {
		for len(c.wevents) == 0 && len(c.watchers) > 0 {
			c.wcond.Wait()
		}
		if len(c.watchers) == 0 {
			c.wevents = nil
			c.dispatching = false
			c.wmu.Unlock()
			return
		}
		ev := c.wevents[0]
		c.wevents = c.wevents[1:]
		ws := make([]*watcher, 0, len(c.watchers))
		for _, w := range c.watchers {
			ws = append(ws, w)
		}
		c.wmu.Unlock()
		for _, w := range ws {
			c.evaluateWatch(w, ev)
		}
		c.wmu.Lock()
	}
}

// evaluateWatch computes one watcher's delta for one event and offers
// it for delivery. Runs only on the dispatcher goroutine, which is the
// sole reader/writer of w.last.
func (c *Concurrent) evaluateWatch(w *watcher, ev watchEvent) {
	if ev.next.gen <= w.sinceGen {
		return // published before this watcher registered
	}
	if w.sp != nil && !ev.reset {
		var added, removed []int
		for _, id := range ev.inserted {
			if ev.next.d.lab.Tree().Alive(id) && w.sp.matches(ev.next.d, id) {
				added = append(added, id)
			}
		}
		for _, root := range ev.deletedRoots {
			w.sp.collectSubtree(ev.prev.d, root, &removed)
		}
		if len(added) == 0 && len(removed) == 0 {
			return
		}
		if w.last != nil {
			for _, id := range added {
				w.last[id] = struct{}{}
			}
			for _, id := range removed {
				delete(w.last, id)
			}
		}
		ids := added
		if len(ids) > maxNotifyIDs {
			ids = ids[:maxNotifyIDs]
		}
		w.offer(Notification{Gen: ev.next.gen, Batches: 1, Added: len(added), Removed: len(removed), IDs: ids})
		return
	}
	// Requery fallback: evaluate on the new snapshot through the shared
	// plan cache and diff against the watcher's last result set.
	mWatchRequeries.Inc()
	ids, err := ev.next.d.Query(w.q)
	if err != nil {
		return // the query parsed at registration; an eval error here means the snapshot cannot answer it
	}
	if w.last == nil {
		// A spine watcher hitting its first reset: seed from the
		// previous snapshot so the diff spans exactly this event.
		w.last = make(map[int]struct{})
		if prev, err := ev.prev.d.Query(w.q); err == nil {
			for _, id := range prev {
				w.last[id] = struct{}{}
			}
		}
	}
	cur := make(map[int]struct{}, len(ids))
	var added []int
	for _, id := range ids {
		cur[id] = struct{}{}
		if _, ok := w.last[id]; !ok {
			added = append(added, id)
		}
	}
	removed := 0
	for id := range w.last {
		if _, ok := cur[id]; !ok {
			removed++
		}
	}
	w.last = cur
	if len(added) == 0 && removed == 0 {
		return
	}
	capped := added
	if len(capped) > maxNotifyIDs {
		capped = capped[:maxNotifyIDs]
	}
	w.offer(Notification{Gen: ev.next.gen, Batches: 1, Added: len(added), Removed: removed, IDs: capped, Requeried: true})
}

// offer folds a delta into the watcher's pending notification and
// wakes the delivery goroutine. Deltas arriving while the receiver is
// slow coalesce here instead of queueing.
func (w *watcher) offer(n Notification) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cancelled {
		return
	}
	if w.pending == nil {
		w.pending = &n
	} else {
		p := w.pending
		p.Gen = n.Gen
		p.Batches += n.Batches
		p.Added += n.Added
		p.Removed += n.Removed
		p.Requeried = p.Requeried || n.Requeried
		p.IDs = append(p.IDs, n.IDs...)
		if len(p.IDs) > maxNotifyIDs {
			p.IDs = p.IDs[:maxNotifyIDs]
		}
		mWatchCoalesced.Inc()
	}
	w.cond.Signal()
}

// deliverLoop moves pending notifications onto the subscriber channel.
// The blocking send keeps per-watcher ordering; a cancel interrupts it
// through the done channel and closes ch.
func (w *watcher) deliverLoop() {
	for {
		w.mu.Lock()
		for w.pending == nil && !w.cancelled {
			w.cond.Wait()
		}
		if w.cancelled {
			w.mu.Unlock()
			close(w.ch)
			return
		}
		n := *w.pending
		w.pending = nil
		w.mu.Unlock()
		select {
		case w.ch <- n:
			mWatchNotifications.Inc()
		case <-w.done:
			close(w.ch)
			return
		}
	}
}

// spine is a compiled predicate-free child/descendant query.
type spine struct {
	steps []xpath.Step
}

// compileSpine returns the spine form of q, or nil when q needs the
// requery fallback (predicates, sibling/parent axes, relative paths).
func compileSpine(q *xpath.Query) *spine {
	if q.Relative || len(q.Steps) == 0 {
		return nil
	}
	for _, s := range q.Steps {
		if (s.Axis != xpath.Child && s.Axis != xpath.Descendant) || len(s.Preds) != 0 {
			return nil
		}
	}
	return &spine{steps: q.Steps}
}

// nameTest mirrors the engine's element name test: "*" matches any
// element, text nodes (empty name) match nothing.
func nameTest(test, name string) bool {
	return name != "" && (test == "*" || test == name)
}

// matches reports whether node id satisfies the spine: its ancestor
// name chain, root-first, must thread through the steps with the last
// step landing exactly on id. The check is a small DP over
// (chain position × step index) — O(depth × steps), no document scan.
func (sp *spine) matches(d *Document, id int) bool {
	tr := d.lab.Tree()
	if !tr.Alive(id) || d.names.At(id) == "" {
		return false
	}
	chain := make([]int, 0, 16)
	for v := id; v != -1; v = tr.Parent(v) {
		chain = append(chain, v)
	}
	for i, k := 0, len(chain)-1; i < k; i, k = i+1, k-1 {
		chain[i], chain[k] = chain[k], chain[i]
	}
	m := len(sp.steps)
	// fPrev[j]: steps[0..j) matched, ending exactly at the previous
	// chain node. gPrev[j]: same, ending at or above it.
	fPrev := make([]bool, m+1)
	gPrev := make([]bool, m+1)
	f := make([]bool, m+1)
	fPrev[0] = true
	gPrev[0] = true
	for _, v := range chain {
		name := d.names.At(v)
		f[0] = false
		for j := 1; j <= m; j++ {
			f[j] = false
			st := sp.steps[j-1]
			if !nameTest(st.Name, name) {
				continue
			}
			if st.Axis == xpath.Child {
				f[j] = fPrev[j-1]
			} else {
				f[j] = gPrev[j-1]
			}
		}
		for j := 0; j <= m; j++ {
			fPrev[j] = f[j]
			gPrev[j] = gPrev[j] || f[j]
		}
	}
	return fPrev[m]
}

// collectSubtree appends every spine match inside the subtree rooted
// at root (alive in d) to out — the removed-match scan for a delete.
func (sp *spine) collectSubtree(d *Document, root int, out *[]int) {
	tr := d.lab.Tree()
	if !tr.Alive(root) {
		return
	}
	stack := []int{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !tr.Alive(v) {
			continue
		}
		if sp.matches(d, v) {
			*out = append(*out, v)
		}
		stack = append(stack, tr.Children[v]...)
	}
}
