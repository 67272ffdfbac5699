package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of vs (mean of the two middles for an even
// count), or 0 for none. It sorts a copy.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// samples holds per-operation latencies in nanoseconds. The buffer is
// allocated before the measured phase so that recording does not show
// up in alloc_kb_per_op; its bytes are subtracted from heap_live_mb.
type samples struct {
	ns     []int32
	sorted bool
}

func newSamples(capacity int) *samples { return &samples{ns: make([]int32, 0, capacity)} }

func (s *samples) add(d time.Duration) {
	if d > math.MaxInt32 {
		d = math.MaxInt32
	}
	s.ns = append(s.ns, int32(d))
	s.sorted = false
}

func (s *samples) bytes() int64 { return int64(cap(s.ns)) * 4 }

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = false
}

func (s *samples) sort() {
	if !s.sorted {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
		s.sorted = true
	}
}

// percentileUS returns the p-th percentile (0 < p < 1) in microseconds
// and whether at least ten samples lie beyond it — the condition under
// which the figure may be printed. The median is always supported once
// there are twenty samples.
func (s *samples) percentileUS(p float64) (float64, bool) {
	n := len(s.ns)
	if n == 0 {
		return 0, false
	}
	s.sort()
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return float64(s.ns[i]) / 1e3, n-1-i >= 10
}

func (s *samples) medianUS() float64 {
	v, _ := s.percentileUS(0.5)
	return v
}

// recorder is one caller's view of a measured phase: latencies by
// operation kind and the attempted/failed tally. Each caller owns one;
// they are merged afterwards.
//
// A phase is a fixed amount of work — the next N operations of the
// caller's stream — capped by a time. The system does not reach a
// steady state under sustained edits (node ids are never reused, so
// every structure sized by ids-ever-allocated grows with the edit
// history), so only a fixed stretch of the stream is the same work on
// every run; a fixed time would measure further down the slope the
// faster the system gets.
type recorder struct {
	reads, writes *samples
	attempted     int
	failed        int
	completed     int
	start, end    time.Time
}

func newRecorder(readCap, writeCap int) *recorder {
	return &recorder{reads: newSamples(readCap), writes: newSamples(writeCap)}
}

// begin starts the measured phase: everything recorded before it (the
// warm-up) is dropped.
func (r *recorder) begin(start time.Time) {
	r.reads.ns = r.reads.ns[:0]
	r.writes.ns = r.writes.ns[:0]
	r.attempted, r.failed, r.completed = 0, 0, 0
	r.start, r.end = start, start
}

// done records one completed operation. A failed operation counts as
// attempted and failed and contributes no latency or throughput.
func (r *recorder) done(write bool, t0, t1 time.Time, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	if write {
		r.writes.add(t1.Sub(t0))
	} else {
		r.reads.add(t1.Sub(t0))
	}
	r.completed++
	r.end = t1
}

func (r *recorder) bufferBytes() int64 { return r.reads.bytes() + r.writes.bytes() }

// phaseTotals is the merged view of the callers' recorders.
type phaseTotals struct {
	reads, writes     *samples
	attempted, failed int
	// opsPerS sums, over the callers, each one's completed operations
	// over the time it took to complete them.
	opsPerS float64
}

func mergeRecorders(recs []*recorder) *phaseTotals {
	t := &phaseTotals{reads: newSamples(0), writes: newSamples(0)}
	for _, r := range recs {
		t.reads.merge(r.reads)
		t.writes.merge(r.writes)
		t.attempted += r.attempted
		t.failed += r.failed
		if d := r.end.Sub(r.start).Seconds(); d > 0 {
			t.opsPerS += float64(r.completed) / d
		}
	}
	return t
}

// trimmedMean is the mean of the middle four fifths of vs: the tenth
// at either end is dropped. It sorts a copy.
func trimmedMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
