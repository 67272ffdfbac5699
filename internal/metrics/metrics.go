// Package metrics is a dependency-free instrumentation registry:
// counters, gauges and fixed-bucket histograms, all safe for
// concurrent use, with an expvar-compatible JSON dump.
//
// The hot tiers (journal segments, cdbs, qed, dyndoc) register their
// instruments once at package init against the Default registry and
// update them with a single atomic operation per event, so the
// overhead on label kernels is a few nanoseconds. Snapshots are
// consistent enough for reporting (each instrument is read
// atomically; the set is not a point-in-time cut) and are what
// dynxml.MetricsJSON returns.
//
// Every instrument implements expvar.Var (String returns JSON);
// internal/web serves the Default registry at /debug/vars itself.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they are applied
// as-is so tests can detect them in dumps rather than mask them).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String renders the counter as its JSON value (expvar.Var).
func (c *Counter) String() string { return fmt.Sprintf("%d", c.Value()) }

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// String renders the gauge as its JSON value (expvar.Var).
func (g *Gauge) String() string {
	b, _ := json.Marshal(g.Value())
	return string(b)
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= bounds[i] (and v > bounds[i-1]); one
// overflow bucket catches everything above the last bound. Bounds are
// fixed at creation, so Observe is one binary search plus two atomic
// adds — no locking, no allocation.
type Histogram struct {
	bounds []float64 // sorted upper bounds
	counts []atomic.Int64
	over   atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram over the given bounds, which are
// sorted and de-duplicated; nil or empty bounds get DefBuckets.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{bounds: uniq, counts: make([]atomic.Int64, len(uniq))}
}

// DefBuckets returns the default bounds: exponential from 1µs to ~4s,
// suitable for latencies in seconds.
func DefBuckets() []float64 { return ExpBuckets(1e-6, 2, 22) }

// ExpBuckets returns n exponential upper bounds start, start*factor,
// start*factor², ….
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	for v := start; len(out) < n; v *= factor {
		out = append(out, v)
	}
	return out
}

// LinearBuckets returns n linear upper bounds start, start+width, ….
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, 0, n)
	for v := start; len(out) < n; v += width {
		out = append(out, v)
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the average observation (0 with no data).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket that contains it. Observations in
// the overflow bucket report the last bound. It returns 0 with no
// data.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - seen) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		seen += c
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCount is one histogram bucket in a snapshot.
type bucketCount struct {
	Le float64 `json:"le"` // upper bound (inclusive)
	N  int64   `json:"n"`
}

// histogramSnapshot is the JSON form of a histogram. Empty buckets
// are elided to keep dumps small.
type histogramSnapshot struct {
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	Mean     float64       `json:"mean"`
	P50      float64       `json:"p50"`
	P95      float64       `json:"p95"`
	P99      float64       `json:"p99"`
	Buckets  []bucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"`
}

func (h *Histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{
		Count:    h.Count(),
		Sum:      h.Sum(),
		Mean:     h.Mean(),
		P50:      h.Quantile(0.50),
		P95:      h.Quantile(0.95),
		P99:      h.Quantile(0.99),
		Overflow: h.over.Load(),
	}
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, bucketCount{Le: h.bounds[i], N: n})
		}
	}
	return s
}

// String renders the histogram snapshot as JSON (expvar.Var).
func (h *Histogram) String() string {
	b, _ := json.Marshal(h.snapshot())
	return string(b)
}

// Registry holds named instruments. Instrument lookups are
// get-or-create and return a stable pointer, so hot paths resolve
// their instruments once (package init) and update lock-free.
type Registry struct {
	mu    sync.RWMutex
	items map[string]interface{} // *Counter | *Gauge | *Histogram
}

// New returns an empty registry.
func New() *Registry { return &Registry{items: map[string]interface{}{}} }

// Default is the process-wide registry the built-in tiers register
// against.
var Default = New()

func (r *Registry) lookup(name string) (interface{}, bool) {
	r.mu.RLock()
	v, ok := r.items[name]
	r.mu.RUnlock()
	return v, ok
}

// Counter returns the named counter, creating it on first use. A name
// already registered as a different instrument kind panics: two tiers
// disagreeing on a metric's type is a programming error worth failing
// loudly on.
func (r *Registry) Counter(name string) *Counter {
	if v, ok := r.lookup(name); ok {
		return mustKind[*Counter](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.items[name]; ok {
		return mustKind[*Counter](name, v)
	}
	c := &Counter{}
	r.items[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if v, ok := r.lookup(name); ok {
		return mustKind[*Gauge](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.items[name]; ok {
		return mustKind[*Gauge](name, v)
	}
	g := &Gauge{}
	r.items[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil means DefBuckets). Later
// calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if v, ok := r.lookup(name); ok {
		return mustKind[*Histogram](name, v)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.items[name]; ok {
		return mustKind[*Histogram](name, v)
	}
	h := newHistogram(bounds)
	r.items[name] = h
	return h
}

// mustKind asserts the registered instrument's kind.
func mustKind[T any](name string, v interface{}) T {
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered as %T", name, v))
	}
	return t
}

// Reset zeroes every registered instrument in place (pointers held by
// hot paths stay valid). Benchmarks and experiments use it to scope a
// dump to one run.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.items {
		switch m := v.(type) {
		case *Counter:
			m.v.Store(0)
		case *Gauge:
			m.bits.Store(0)
		case *Histogram:
			for i := range m.counts {
				m.counts[i].Store(0)
			}
			m.over.Store(0)
			m.n.Store(0)
			m.sum.Store(0)
		}
	}
}

// Snapshot returns a JSON-marshalable view of every instrument:
// counters as integers, gauges as floats, histograms as objects.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]interface{}, len(r.items))
	for name, v := range r.items {
		switch m := v.(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *Histogram:
			out[name] = m.snapshot()
		}
	}
	return out
}

// WriteJSON dumps the registry as one sorted, indented JSON object —
// the same shape expvar renders, so existing scrapers can parse it.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, n := range names {
		val, err := json.Marshal(snap[n])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(names)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "  %q: %s%s", n, val, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
