package web

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Server-wide HTTP metrics; per-route families are built per
// registered route in newRouteMetrics.
var (
	mRequests = metrics.Default.Counter("web_requests_total")
	mInflight = metrics.Default.Gauge("web_inflight_requests")
	mPanics   = metrics.Default.Counter("web_panics_total")
	mTimeouts = metrics.Default.Counter("web_timeouts_total")
)

// ctxKey is the private context-key namespace for this package.
type ctxKey int

const ctxRequestID ctxKey = iota

// RequestID returns the request id the middleware assigned (or
// accepted from the client's X-Request-ID header), or "" outside a
// served request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxRequestID).(string)
	return id
}

// newRequestID returns 16 hex chars of crypto randomness — unique
// enough to grep one request out of any log volume this server sees.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// withRequestID assigns every request an id, echoing a client-chosen
// X-Request-ID when present, and reflects it in the response header
// so clients and server logs can be correlated.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > 128 {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxRequestID, id)))
	})
}

// withRecover converts a handler panic into a JSON 500 carrying the
// request id, keeping the connection (and the server) alive. It runs
// innermost — inside the timeout goroutine — so panics on the
// timeout's handler goroutine are caught where they happen.
func withRecover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				log.Printf("web: panic serving %s %s (request %s): %v\n%s",
					r.Method, r.URL.Path, RequestID(r.Context()), p, debug.Stack())
				writeError(w, r, http.StatusInternalServerError, CodeInternal, "internal error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// bufferedResponse captures a handler's full response so the timeout
// middleware can atomically either flush it or discard it in favor of
// a 504 — never interleave the two.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
	shared []byte // when set, the body instead, by reference (writeShared)
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: make(http.Header)}
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.body.Write(p)
}

// flush copies the buffered response onto the real writer. The whole
// body is in hand, so its length is stated and no reply leaves chunked.
func (b *bufferedResponse) flush(w http.ResponseWriter) int {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	body := b.body.Bytes()
	if b.shared != nil {
		body = b.shared
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(b.status)
	_, _ = w.Write(body)
	return b.status
}

// writeShared writes a 200 reply's whole body from bytes other requests
// read too and nobody writes again (a memoised rendering): a buffered
// response keeps the reference, not a copy; net/http only reads them.
func writeShared(w http.ResponseWriter, body []byte) {
	if b, ok := w.(*bufferedResponse); ok {
		b.WriteHeader(http.StatusOK)
		b.shared = body
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// withTimeout bounds a request's wall time: the handler runs on its
// own goroutine against a buffered response, and whichever finishes
// first — handler or deadline — owns the connection. A timed-out
// handler keeps running against the discarded buffer until it
// observes its cancelled context; its writes go nowhere.
func withTimeout(d time.Duration, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		rec := newBufferedResponse()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, r.WithContext(ctx))
		}()
		select {
		case <-done:
			rec.flush(w)
		case <-ctx.Done():
			mTimeouts.Inc()
			writeError(w, r, http.StatusGatewayTimeout, CodeTimeout, "request timed out")
		}
	})
}

// statusWriter records the status code a handler chose so the metrics
// layer can bucket it by class.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so streaming routes (SSE)
// work through the metrics layer.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeMetrics is one route's instrument family on the process
// registry: latency, in-flight gauge and status-class counters, all
// keyed web_route_<route>_*.
type routeMetrics struct {
	latency  *metrics.Histogram
	inflight *metrics.Gauge
	c2xx     *metrics.Counter
	c4xx     *metrics.Counter
	c5xx     *metrics.Counter
}

func newRouteMetrics(route string) *routeMetrics {
	p := "web_route_" + route + "_"
	return &routeMetrics{
		latency:  metrics.Default.Histogram(p+"latency_seconds", nil),
		inflight: metrics.Default.Gauge(p + "inflight"),
		c2xx:     metrics.Default.Counter(p + "responses_2xx_total"),
		c4xx:     metrics.Default.Counter(p + "responses_4xx_total"),
		c5xx:     metrics.Default.Counter(p + "responses_5xx_total"),
	}
}

// observe records one finished request.
func (m *routeMetrics) observe(status int, elapsed time.Duration) {
	m.latency.Observe(elapsed.Seconds())
	switch {
	case status >= 500:
		m.c5xx.Inc()
	case status >= 400:
		m.c4xx.Inc()
	default:
		m.c2xx.Inc()
	}
}

// withMetrics wraps a route's handler with its instrument family and
// the server-wide counters. It sits outside the timeout layer, so a
// 504 is what gets recorded for a timed-out request.
func withMetrics(m *routeMetrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		mInflight.Add(1)
		m.inflight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			m.inflight.Add(-1)
			mInflight.Add(-1)
			m.observe(sw.status, time.Since(start))
		}()
		h.ServeHTTP(sw, r)
	})
}
