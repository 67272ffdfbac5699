package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"time"

	dynxml "repro"
)

// processStart anchors the monotonic clock reads of nowNS.
var processStart = time.Now()

func nowNS() int64 { return int64(time.Since(processStart)) }

// counters reads the process-wide metrics registry through its public
// JSON form: counters and gauges under their names, histograms as
// name.count and name.sum.
func counters() (map[string]float64, error) {
	raw, err := dynxml.MetricsJSON()
	if err != nil {
		return nil, err
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(all))
	for name, v := range all {
		var num float64
		if json.Unmarshal(v, &num) == nil {
			out[name] = num
			continue
		}
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if json.Unmarshal(v, &h) == nil {
			out[name+".count"] = h.Count
			out[name+".sum"] = h.Sum
		}
	}
	return out, nil
}

// phaseResult is what one measured phase produced.
type phaseResult struct {
	rec *phaseTotals
	// seconds is how long the phase took: the time by which the last
	// caller finished its operations or met the time cap.
	seconds float64
	// Whole-process deltas over the phase.
	allocBytes   uint64
	numGC        uint32
	gcPauseNS    uint64
	counterDelta map[string]float64
	// heapLiveBytes is HeapAlloc after a forced GC when the phase ends —
	// a phase is a fixed number of operations, so the point does not move
	// with the system's speed — less the recorders' own sample buffers.
	// heapGrowthBytes is how much of it the phase added.
	heapLiveBytes   int64
	heapGrowthBytes int64
	// errs keeps the first few operation errors for the report.
	errs []string
}

func (p *phaseResult) ok() int { return p.rec.attempted - p.rec.failed }

// errorLog collects the first few distinct failures of a phase.
type errorLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *errorLog) add(err error) {
	l.mu.Lock()
	if len(l.msgs) < 5 {
		l.msgs = append(l.msgs, err.Error())
	}
	l.mu.Unlock()
}

// measure runs the callers of one phase in parallel and gathers the
// process-wide deltas around them. Each caller function owns one
// recorder and returns after its operations, or when the deadline
// passes if that comes first.
func measure(length time.Duration, recs []*recorder, client func(i int, rec *recorder, deadline time.Time)) (*phaseResult, error) {
	before, err := counters()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for i, rec := range recs {
		rec.begin(start)
		wg.Add(1)
		go func(i int, rec *recorder) {
			defer wg.Done()
			client(i, rec, deadline)
		}(i, rec)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	after, err := counters()
	if err != nil {
		return nil, err
	}
	res := &phaseResult{
		seconds:      elapsed.Seconds(),
		allocBytes:   m1.TotalAlloc - m0.TotalAlloc,
		numGC:        m1.NumGC - m0.NumGC,
		gcPauseNS:    m1.PauseTotalNs - m0.PauseTotalNs,
		counterDelta: map[string]float64{},
	}
	for k, v := range after {
		res.counterDelta[k] = v - before[k]
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var buffers int64
	for _, rec := range recs {
		buffers += rec.bufferBytes()
	}
	res.heapLiveBytes = int64(m1.HeapAlloc) - buffers
	res.heapGrowthBytes = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	// Merged only now: the merged samples are the benchmark's, not the
	// system's, and would count as live heap.
	res.rec = mergeRecorders(recs)
	return res, nil
}

// metricSet is the named numbers one run reports.
type metricSet map[string]float64

// latencyMetrics derives the caller-observed figures of a phase: the
// rate, the median latencies and — only when at least ten samples lie
// beyond them — the 99th percentiles, all of them per-layer metrics
// under client; and the allocation and live-heap figures, which are
// end-to-end.
func (p *phaseResult) latencyMetrics(into metricSet) {
	into["client.ops_per_s"] = p.rec.opsPerS
	into["client.read_p50_us"] = p.rec.reads.medianUS()
	into["client.write_p50_us"] = p.rec.writes.medianUS()
	if p99, ok := p.rec.reads.percentileUS(0.99); ok {
		into["client.read_p99_us"] = p99
	}
	if p99, ok := p.rec.writes.percentileUS(0.99); ok {
		into["client.write_p99_us"] = p99
	}
	if ok := p.ok(); ok > 0 {
		into["alloc_kb_per_op"] = float64(p.allocBytes) / 1024 / float64(ok)
	}
	into["heap_live_mb"] = float64(p.heapLiveBytes) / (1 << 20)
}
