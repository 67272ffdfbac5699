package plan

import (
	"slices"
	"sync"

	"repro/internal/invariants"
	"repro/internal/metrics"
	"repro/internal/xpath"
)

// Cache metrics: compiled-plan reuse, materialized-result reuse keyed
// by read-set stamp, and evictions when the result cache overflows its
// bounds.
var (
	mPlanHits     = metrics.Default.Counter("xpath_plan_cache_hits_total")
	mPlanMisses   = metrics.Default.Counter("xpath_plan_cache_misses_total")
	mResultHits   = metrics.Default.Counter("xpath_result_cache_hits_total")
	mResultMisses = metrics.Default.Counter("xpath_result_cache_misses_total")
	mResultEvict  = metrics.Default.Counter("xpath_result_cache_evictions_total")
	mResultRefuse = metrics.Default.Counter("xpath_result_cache_oversize_refused_total")
)

// Cache bound defaults: entries and total cached ids across all
// entries (the ids bound is what actually limits memory).
const (
	defaultMaxResults   = 256
	defaultMaxCachedIDs = 1 << 22
)

// Rendering is the form an answer is served in, with its inverse:
// Render turns ids into the bytes sent, and Parse turns exactly those
// bytes back into the ids. Neither keeps nor modifies its argument.
type Rendering struct {
	Render func(ids []int) []byte
	Parse  func(b []byte) []int
}

// resultEntry is one materialized query result, held in the forms it
// has been asked for: its ids (Eval, EvalString, Explain), the bytes
// Cache.Rendered serves, or both. It is valid for every (engine, gen)
// whose Stamp of plan.Reads is stamp. An entry is immutable once
// stored: a form made from the one held arrives on a fresh entry. What
// it holds is what every read of it returns, shared, so under the
// invariants build sum and rsum, hashes of the answer's ids and of its
// rendering, are checked at every lookup: a caller that wrote to an
// answer is caught at the next one.
type resultEntry struct {
	plan     *Plan
	stamp    uint64
	ids      []int
	rendered []byte
	parse    func(b []byte) []int // set when rendered is all the entry holds
	sum      uint64               // hash of the answer's ids when invariants.Enabled
	rsum     uint64               // hash(rendered) when invariants.Enabled
}

// bytesOnly reports whether the entry holds its rendering and no ids.
func (ent *resultEntry) bytesOnly() bool { return ent.parse != nil }

// hash is FNV-1a over s, one element at a time.
func hash[E int | byte](s []E) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// cost is what the entry is charged against maxIDs: the ids it holds,
// and its rendering at one id per 8 bytes held.
func (ent *resultEntry) cost() int { return len(ent.ids) + (cap(ent.rendered)+7)/8 }

// Cache holds compiled plans keyed by canonical query text and
// materialized results keyed by the text the caller sent: Eval sends
// its query's canonical text, EvalString and Rendered the text they were
// given, so a hit through them parses nothing and two spellings of one
// query share a plan. Plans stay valid across snapshots — strategy
// drift is a performance question, never a correctness one — so they
// are cached unconditionally. A result is valid wherever the elements
// its query reads are the ones it was computed from: it is stored with
// its plan's read set and its stamp, a lookup has the engine at hand
// compute the stamp of that read set, and anything but equality is a
// miss. There is no other invalidation protocol; writers never touch
// the cache, and documents that share history — a document, its
// clones, the snapshots of one dyndoc.Concurrent — share one Cache.
type Cache struct {
	maxResults int
	maxIDs     int

	mu      sync.RWMutex
	plans   map[string]*Plan        // vet:guardedby mu
	results map[string]*resultEntry // vet:guardedby mu
	nIDs    int                     // vet:guardedby mu // total cost() across results
}

// NewCache returns a cache with the default bounds.
func NewCache() *Cache { return NewCacheBounds(defaultMaxResults, defaultMaxCachedIDs) }

// NewCacheBounds returns a cache bounded to maxResults entries and
// maxIDs total cached node ids; a memoised rendering counts as one id
// per 8 bytes.
func NewCacheBounds(maxResults, maxIDs int) *Cache {
	return &Cache{
		maxResults: maxResults,
		maxIDs:     maxIDs,
		plans:      make(map[string]*Plan),
		results:    make(map[string]*resultEntry),
	}
}

// plan returns the cached plan for text and true, or compiles one
// against e, caches it and returns it with false. Concurrent
// compilations of the same query may race; both produce correct plans
// and the last store wins.
func (c *Cache) plan(e *xpath.Engine, q *xpath.Query, text string) (*Plan, bool) {
	c.mu.RLock()
	p := c.plans[text]
	c.mu.RUnlock()
	if p != nil {
		return p, true
	}
	p = For(e, q)
	c.mu.Lock()
	c.plans[text] = p
	c.mu.Unlock()
	return p, false
}

// lookupResult returns the entry cached for text if it is valid for
// (e, gen), or nil.
func (c *Cache) lookupResult(e *xpath.Engine, gen uint64, text string) *resultEntry {
	c.mu.RLock()
	ent := c.results[text]
	c.mu.RUnlock()
	if ent == nil {
		return nil
	}
	if invariants.Enabled && (!ent.bytesOnly() && hash(ent.ids) != ent.sum || hash(ent.rendered) != ent.rsum) {
		invariants.Violated("plan", "the cached answer to %q was written after it was returned; answers are shared and read-only", text)
	}
	if ent.stamp != e.Stamp(ent.plan.Reads, gen) {
		return nil
	}
	return ent
}

// storeResult caches ent under text, evicts until the bounds hold and
// returns ent, kept or not. A result the bounds could never admit
// (costlier than maxIDs, or a zero-entry cache) is refused outright:
// eviction never removes the entry just stored, so it would pin the
// cache over its bound forever after emptying it in vain. The entry it
// replaces is dropped either way — the caller just found it stale.
func (c *Cache) storeResult(text string, ent *resultEntry) *resultEntry {
	if invariants.Enabled {
		if !ent.bytesOnly() {
			ent.sum = hash(ent.ids)
		}
		ent.rsum = hash(ent.rendered)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.results[text]; old != nil {
		c.nIDs -= old.cost()
		delete(c.results, text)
	}
	if ent.cost() > c.maxIDs || c.maxResults < 1 {
		mResultRefuse.Inc()
		return ent
	}
	c.results[text] = ent
	c.nIDs += ent.cost()
	// Evict entries other than the one just stored, which alone fits the
	// bounds, until both hold.
	for key, old := range c.results {
		if len(c.results) <= c.maxResults && c.nIDs <= c.maxIDs {
			break
		}
		if key != text {
			delete(c.results, key)
			c.nIDs -= old.cost()
			mResultEvict.Inc()
		}
	}
	return ent
}

// widen stores ent, which holds both forms of an answer the cache holds
// in one, in place of that entry, unless ent alone is over the bound:
// the store would refuse it and drop the answer with it.
func (c *Cache) widen(text string, ent *resultEntry) {
	if ent.cost() <= c.maxIDs {
		c.storeResult(text, ent)
	}
}

// result returns the entry for text that is valid for (e, gen) and
// true, or evaluates against e and returns a new entry that holds the
// ids, not yet stored, and false. q is text parsed, or nil to have a
// miss parse it. Every call that gets past parsing counts one hit or
// one miss.
func (c *Cache) result(e *xpath.Engine, gen uint64, text string, q *xpath.Query) (*resultEntry, bool, error) {
	if ent := c.lookupResult(e, gen, text); ent != nil {
		mResultHits.Inc()
		return ent, true, nil
	}
	planText := text
	if q == nil {
		var err error
		if q, err = xpath.Parse(text); err != nil {
			return nil, false, err
		}
		planText = q.String()
	}
	mResultMisses.Inc()
	p, hit := c.plan(e, q, planText)
	if hit {
		mPlanHits.Inc()
	} else {
		mPlanMisses.Inc()
	}
	ids, err := p.Eval(e)
	if err != nil {
		return nil, false, err
	}
	return &resultEntry{plan: p, stamp: e.Stamp(p.Reads, gen), ids: ids}, false, nil
}

// Eval evaluates q against e, serving from the result cache when the
// entry there is valid for (e, gen). The returned slice is the cached
// answer itself, shared with every caller and read-only: it stays
// valid for as long as the caller holds it, across later edits, and an
// append to it copies, but a write into it corrupts the answer for
// everyone (the invariants build panics at the next lookup). A caller
// that must modify it calls slices.Clone first.
// gen must identify the state e evaluates over among all that use this
// cache (xpath.Engine.Stamp), and a gen that does not change when the
// state does yields stale reads. A version-less engine, whose owner
// moves gen at every edit as the document's last-edit token moves, is
// asked for it by every query. An engine with versions is asked only by
// a query whose read set is nil: one with a * step whose parent is
// unknown, such as //*. A * child or sibling step reads its parent's
// child lists (ReadSet) and leaves gen alone.
func (c *Cache) Eval(e *xpath.Engine, gen uint64, q *xpath.Query) ([]int, error) {
	return c.evalText(e, gen, q.String(), q)
}

// EvalString is Eval for the query text; a hit on an entry that holds
// the ids parses and allocates nothing.
func (c *Cache) EvalString(e *xpath.Engine, gen uint64, text string) ([]int, error) {
	return c.evalText(e, gen, text, nil)
}

func (c *Cache) evalText(e *xpath.Engine, gen uint64, text string, q *xpath.Query) ([]int, error) {
	ent, hit, err := c.result(e, gen, text, q)
	if err != nil {
		return nil, err
	}
	switch {
	case !hit:
		c.storeResult(text, ent)
	case ent.bytesOnly():
		// Asked for in process after it was served: the ids come from
		// the bytes, which evaluates nothing, and stay beside them.
		ids := ent.parse(ent.rendered)
		if invariants.Enabled && hash(ids) != ent.sum {
			invariants.Violated("plan", "the rendering of %q parses to %d ids, not to its answer", text, len(ids))
		}
		ent = &resultEntry{plan: ent.plan, stamp: ent.stamp, ids: ids, rendered: ent.rendered}
		c.widen(text, ent)
	}
	n := len(ent.ids)
	return ent.ids[:n:n], nil // capacity clipped: an append never writes into the entry
}

// Rendered returns r.Render(ids) for the ids Eval returns for the query
// text, memoised with the result: Render runs once per entry the cache
// keeps and every later hit returns the same bytes, which are shared —
// callers must not write to them — and go with the entry, so they are
// never served at another stamp. An answer first asked for here is
// kept as its bytes alone; Eval and EvalString make its ids with
// r.Parse, and Rendered its bytes from ids it holds, each at a hit.
// Every caller of one Cache must pass the same rendering.
func (c *Cache) Rendered(e *xpath.Engine, gen uint64, text string, r Rendering) ([]byte, error) {
	ent, hit, err := c.result(e, gen, text, nil)
	if err != nil {
		return nil, err
	}
	if ent.rendered != nil {
		return ent.rendered, nil
	}
	b := r.Render(ent.ids)
	if invariants.Enabled {
		if back := r.Parse(b); !slices.Equal(back, ent.ids) {
			invariants.Violated("plan", "the rendering of %q parses to %d ids, not to its answer", text, len(back))
		}
	}
	if hit {
		c.widen(text, &resultEntry{plan: ent.plan, stamp: ent.stamp, ids: ent.ids, rendered: b})
		return b, nil
	}
	served := &resultEntry{plan: ent.plan, stamp: ent.stamp, rendered: b, parse: r.Parse}
	if invariants.Enabled {
		served.sum = hash(ent.ids)
	}
	c.storeResult(text, served)
	return b, nil
}

// MemoryFootprint estimates the bytes the cached results hold: 8 per
// id held plus the renderings.
func (c *Cache) MemoryFootprint() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(c.nIDs) * 8
}

// Explain evaluates q with instrumentation and returns the EXPLAIN
// report. The result cache state is reported as it stood before the
// call (an entry valid for (e, gen) or not); the execution itself always
// runs fully so every per-step actual is measured, and its result
// refreshes the cache. Explain moves none of the plan or result
// hit/miss counters — diagnostics should not skew the production cache
// metrics.
func (c *Cache) Explain(e *xpath.Engine, gen uint64, q *xpath.Query) (*Report, error) {
	text := q.String()
	p, _ := c.plan(e, q, text)
	rec := newReport(p, e)
	rec.Cache = "miss"
	if c.lookupResult(e, gen, text) != nil {
		rec.Cache = "hit"
	}
	ids, err := p.run(e, rec)
	if err != nil {
		return nil, err
	}
	c.storeResult(text, &resultEntry{plan: p, stamp: e.Stamp(p.Reads, gen), ids: ids})
	return rec, nil
}
