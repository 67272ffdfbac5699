package dyndoc

import (
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/xpath"
	"repro/internal/xpath/plan"
)

// Live query subscriptions. Watch(path) registers a query against a
// Concurrent document. A publish only stores the snapshot and wakes one
// dispatcher goroutine, which re-reads the newest snapshot for every
// watcher. What the query reads is known by its read-set
// stamp — the token the result cache keys its answer by — so a round in
// which no edit touched a name or child list the query reads costs the
// watcher one stamp and nothing else. Otherwise the query is asked through the
// document's result cache and its answer diffed against the watcher's
// last one. A notification is therefore the net change since the
// watcher's previous notification: an element inserted and deleted
// between two rounds is never reported. The dispatcher never takes the
// writer mutex and never waits for a receiver, so a slow watcher costs
// writers nothing and holds no snapshot.
var (
	mWatchActive        = metrics.Default.Gauge("watch_watchers_active")
	mWatchEvents        = metrics.Default.Counter("watch_events_total")        // dispatcher rounds
	mWatchNotifications = metrics.Default.Counter("watch_notifications_total") // notifications received
	mWatchCoalesced     = metrics.Default.Counter("watch_coalesced_total")     // generations folded into a notification past its first
	mWatchRequeries     = metrics.Default.Counter("watch_requeries_total")     // evaluations: rounds whose stamp moved
)

// maxNotifyIDs bounds how many concrete match ids one Notification
// carries; Added/Removed always count the full delta.
const maxNotifyIDs = 256

// Notification reports a net change to a watched query's answer since
// the watcher's previous notification, or since it registered.
type Notification struct {
	// Gen is the generation of the snapshot the answer was read from.
	Gen uint64 `json:"gen"`
	// Batches counts the generations published since the previous
	// notification.
	Batches int `json:"batches"`
	// Added and Removed count nodes that entered and left the answer.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// IDs lists up to maxNotifyIDs of the added node ids, in document
	// order, valid in the snapshot at Gen.
	IDs []int `json:"ids,omitempty"`
}

// watcher is one registered subscription. q, reads, ch and done are
// set before registration; last, stamp and notified belong to the
// dispatcher once it is registered; inflight and cancelled are guarded
// by the document's wmu.
type watcher struct {
	q     *xpath.Query
	reads []string // plan.ReadSet(q)
	ch    chan Notification
	done  chan struct{} // closed by cancel

	last     []int  // the answer last read, sorted by id
	stamp    uint64 // its read-set stamp
	notified uint64 // generation of the previous notification, or of the seed

	inflight  bool // a notification is on its way to ch
	cancelled bool
}

// Watch registers path against the document and returns a channel of
// net answer changes plus a cancel function, which closes the channel.
// The answer at registration is the baseline: nothing published before
// it is reported.
func (c *Concurrent) Watch(path string) (<-chan Notification, func(), error) {
	q, err := xpath.Parse(path)
	if err != nil {
		return nil, nil, err
	}
	w, err := c.seed(q)
	if err != nil {
		return nil, nil, err
	}
	c.register(w)
	return w.ch, func() { c.cancel(w) }, nil
}

// seed reads q's answer on the newest snapshot into a new watcher.
func (c *Concurrent) seed(q *xpath.Query) (*watcher, error) {
	s := c.load()
	ids, err := s.d.Query(q)
	if err != nil {
		return nil, err
	}
	ids = slices.Clone(ids) // the answer is the cache's: sort a copy
	slices.Sort(ids)
	reads := plan.ReadSet(q)
	return &watcher{
		q: q, reads: reads, ch: make(chan Notification), done: make(chan struct{}),
		last: ids, stamp: s.d.stamp(reads), notified: s.gen,
	}, nil
}

// register hands w to the dispatcher, starting it if none runs, and
// asks for a round: a publish since w was seeded may have woken a
// dispatcher that did not know w yet.
func (c *Concurrent) register(w *watcher) {
	c.wmu.Lock()
	if c.watchers == nil {
		c.watchers = make(map[*watcher]struct{})
		c.wcond = sync.NewCond(&c.wmu)
	}
	c.watchers[w] = struct{}{}
	c.kicked = true
	start := !c.dispatching
	c.dispatching = true
	c.wcond.Broadcast()
	c.wmu.Unlock()
	if start {
		go c.dispatch()
	}
	mWatchActive.Add(1)
}

// cancel deregisters w and closes its channel, here or, when a
// notification is on its way, in deliver. Calls after the first do
// nothing.
func (c *Concurrent) cancel(w *watcher) {
	c.wmu.Lock()
	if w.cancelled {
		c.wmu.Unlock()
		return
	}
	w.cancelled = true
	delete(c.watchers, w)
	c.wcond.Broadcast()
	closeNow := !w.inflight
	c.wmu.Unlock()
	close(w.done)
	if closeNow {
		close(w.ch)
	}
	mWatchActive.Add(-1)
}

// EndWatches cancels every watch registered on the document, closing
// their channels, and returns once the dispatcher is in no round: no
// query runs after it for a watch it ended.
func (c *Concurrent) EndWatches() {
	c.wmu.Lock()
	ws := make([]*watcher, 0, len(c.watchers))
	for w := range c.watchers {
		ws = append(ws, w)
	}
	c.wmu.Unlock()
	for _, w := range ws {
		c.cancel(w)
	}
	c.wmu.Lock()
	for c.round {
		c.wcond.Wait()
	}
	c.wmu.Unlock()
}

// Watchers returns the number of active subscriptions.
func (c *Concurrent) Watchers() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.watchers)
}

// wake asks the dispatcher, if one runs, for a round. A publish calls
// it after storing the snapshot.
func (c *Concurrent) wake() {
	c.wmu.Lock()
	if c.dispatching {
		c.kicked = true
		c.wcond.Broadcast()
	}
	c.wmu.Unlock()
}

// dispatch runs rounds until the last watcher cancels; the next Watch
// starts it again. A round reads the newest snapshot once for every
// watcher with no notification on its way and not cancelled since the
// round listed it: every wake and every delivery asks for one, so a
// watcher skipped now is read later. EndWatches waits on wcond for the
// round to end, so every wake is a Broadcast.
func (c *Concurrent) dispatch() {
	c.wmu.Lock()
	for {
		for !c.kicked && len(c.watchers) > 0 {
			c.wcond.Wait()
		}
		if len(c.watchers) == 0 {
			c.dispatching = false
			c.wmu.Unlock()
			return
		}
		c.kicked, c.round = false, true
		ws := make([]*watcher, 0, len(c.watchers))
		for w := range c.watchers {
			if !w.inflight {
				ws = append(ws, w)
			}
		}
		c.wmu.Unlock()
		mWatchEvents.Inc()
		s := c.load()
		for _, w := range ws {
			select {
			case <-w.done:
				continue
			default:
			}
			if n, ok := w.reread(s); ok {
				c.offer(w, n)
			}
		}
		c.wmu.Lock()
		c.round = false
		c.wcond.Broadcast()
	}
}

// reread brings w up to snapshot s and returns the notification the
// change since its previous one calls for, if any.
func (w *watcher) reread(s *snapshot) (Notification, bool) {
	stamp := s.d.stamp(w.reads)
	if stamp == w.stamp {
		return Notification{}, false
	}
	mWatchRequeries.Inc()
	ids, err := s.d.Query(w.q)
	if err != nil {
		return Notification{}, false // it parsed and ran at registration; a snapshot that cannot answer it has nothing to report
	}
	w.stamp = stamp
	n := Notification{Gen: s.gen, Batches: int(s.gen - w.notified)}
	for _, id := range ids {
		if _, found := slices.BinarySearch(w.last, id); !found {
			if n.Added < maxNotifyIDs {
				n.IDs = append(n.IDs, id)
			}
			n.Added++
		}
	}
	n.Removed = len(w.last) - (len(ids) - n.Added)
	w.last = slices.Clone(ids) // the answer is the cache's: sort a copy
	slices.Sort(w.last)
	if n.Added == 0 && n.Removed == 0 {
		return Notification{}, false
	}
	w.notified = s.gen
	return n, true
}

// offer starts n's delivery unless w was cancelled meanwhile.
func (c *Concurrent) offer(w *watcher, n Notification) {
	c.wmu.Lock()
	w.inflight = !w.cancelled
	start := w.inflight
	c.wmu.Unlock()
	if start {
		go c.deliver(w, n)
	}
}

// deliver hands n to w's receiver, or drops it when w is cancelled
// first, and then asks for a round: what was published while n waited
// is in the next notification.
func (c *Concurrent) deliver(w *watcher, n Notification) {
	select {
	case w.ch <- n:
		mWatchNotifications.Inc()
		mWatchCoalesced.Add(int64(n.Batches - 1))
	case <-w.done:
	}
	c.wmu.Lock()
	w.inflight = false
	cancelled := w.cancelled
	if !cancelled {
		c.kicked = true
		c.wcond.Broadcast()
	}
	c.wmu.Unlock()
	if cancelled {
		close(w.ch)
	}
}
