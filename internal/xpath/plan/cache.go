package plan

import (
	"slices"
	"sync"

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

// resultEntry is one materialized query result with the rendering of
// ids that Cache.Rendered memoises, if one was asked for. It is valid
// for every (engine, gen) whose Stamp of plan.Reads is stamp. An entry
// is immutable once stored: the rendering arrives on a fresh one.
type resultEntry struct {
	plan     *Plan
	stamp    uint64
	ids      []int
	rendered []byte
}

// cost is what the entry is charged against maxIDs: its ids, and its
// rendering at one id per 8 bytes held.
func (ent *resultEntry) cost() int { return len(ent.ids) + (cap(ent.rendered)+7)/8 }

// Cache holds compiled plans keyed by canonical query text and
// materialized results keyed by the text the caller sent: Eval sends
// its query's canonical text, Rendered and Count the text they were
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

// planFor returns the cached plan for text, compiling against e on a
// miss. Concurrent compilations of the same query may race; both
// produce correct plans and the last store wins.
func (c *Cache) planFor(e *xpath.Engine, q *xpath.Query, text string) *Plan {
	c.mu.RLock()
	p := c.plans[text]
	c.mu.RUnlock()
	if p != nil {
		mPlanHits.Inc()
		return p
	}
	mPlanMisses.Inc()
	p = For(e, q)
	c.mu.Lock()
	c.plans[text] = p
	c.mu.Unlock()
	return p
}

// lookupResult returns the entry cached for text if it is valid for
// (e, gen), or nil.
func (c *Cache) lookupResult(e *xpath.Engine, gen uint64, text string) *resultEntry {
	c.mu.RLock()
	ent := c.results[text]
	c.mu.RUnlock()
	if ent == nil || ent.stamp != e.Stamp(ent.plan.Reads, gen) {
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

// result returns the entry for text that is valid for (e, gen),
// evaluating against e on a miss. q is text parsed, or nil to have a
// miss parse it. Every call that gets past parsing counts one hit or
// one miss.
func (c *Cache) result(e *xpath.Engine, gen uint64, text string, q *xpath.Query) (*resultEntry, error) {
	if ent := c.lookupResult(e, gen, text); ent != nil {
		mResultHits.Inc()
		return ent, nil
	}
	planText := text
	if q == nil {
		var err error
		if q, err = xpath.Parse(text); err != nil {
			return nil, err
		}
		planText = q.String()
	}
	mResultMisses.Inc()
	p := c.planFor(e, q, planText)
	ids, err := p.Eval(e)
	if err != nil {
		return nil, err
	}
	return c.storeResult(text, &resultEntry{plan: p, stamp: e.Stamp(p.Reads, gen), ids: ids}), nil
}

// Eval evaluates q against e, serving from the result cache when the
// entry there is valid for (e, gen). The returned slice is a fresh copy
// the caller owns. gen must identify the state e evaluates over among
// all that use this cache (xpath.Engine.Stamp): an engine with versions
// is asked for it only by a query that reads *, a version-less one —
// whose owner moves gen at every edit, as the document's last-edit
// token moves — by every query, and a gen that does not change when the
// state does yields stale reads.
func (c *Cache) Eval(e *xpath.Engine, gen uint64, q *xpath.Query) ([]int, error) {
	return c.evalText(e, gen, q.String(), q)
}

// EvalString is Eval for the query text; a hit parses nothing.
func (c *Cache) EvalString(e *xpath.Engine, gen uint64, text string) ([]int, error) {
	return c.evalText(e, gen, text, nil)
}

func (c *Cache) evalText(e *xpath.Engine, gen uint64, text string, q *xpath.Query) ([]int, error) {
	ent, err := c.result(e, gen, text, q)
	if err != nil {
		return nil, err
	}
	return slices.Clone(ent.ids), nil // nil stays nil: an empty result keeps the engine's convention
}

// Count is len of what Eval returns for the query text; a hit parses
// and allocates nothing.
func (c *Cache) Count(e *xpath.Engine, gen uint64, text string) (int, error) {
	ent, err := c.result(e, gen, text, nil)
	if err != nil {
		return 0, err
	}
	return len(ent.ids), nil
}

// Rendered returns render(ids) for the ids Eval returns for the query
// text, memoised with the result: render runs once per entry the cache
// keeps and every later hit returns the same bytes, which are shared —
// callers must not write to them — and go with the entry, so they are
// never served at another stamp.
// render must not keep or modify ids, and every caller of one Cache
// must pass the same rendering.
func (c *Cache) Rendered(e *xpath.Engine, gen uint64, text string, render func(ids []int) []byte) ([]byte, error) {
	ent, err := c.result(e, gen, text, nil)
	if err != nil {
		return nil, err
	}
	if ent.rendered != nil {
		return ent.rendered, nil
	}
	ent = &resultEntry{plan: ent.plan, stamp: ent.stamp, ids: ent.ids, rendered: render(ent.ids)}
	// A rendering that puts its result over the bound is not kept: the
	// store would refuse it and drop the result with it.
	if ent.cost() <= c.maxIDs {
		c.storeResult(text, ent)
	}
	return ent.rendered, nil
}

// MemoryFootprint estimates the bytes the cached results hold: 8 per
// id plus the renderings.
func (c *Cache) MemoryFootprint() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(c.nIDs) * 8
}

// Explain evaluates q with instrumentation and returns the EXPLAIN
// report. The result cache state is reported as it stood before the
// call (an entry valid for (e, gen) or not); the execution itself always
// runs fully so every per-step actual is measured, and its result
// refreshes the cache. Explain does not bump the hit/miss counters —
// diagnostics should not skew the production cache metrics.
func (c *Cache) Explain(e *xpath.Engine, gen uint64, q *xpath.Query) (*Report, error) {
	text := q.String()
	p := c.planFor(e, q, text)
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
