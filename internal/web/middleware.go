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
	"sync"
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

// call is a request's passage through the middleware, pooled whole and
// taken once, by withRequestID. It is the request's one context (its id
// and, under the timeout layer, its deadline); req is the request the
// mux and the route see, net/http's with the call as its context; sw is
// the metrics layer's writer, and buf and timer the timeout layer's. A
// handler writes buf on the connection's goroutine, and whichever of
// finish and expire takes w first answers the client. A handler must not
// keep the request or its context past its return.
type call struct {
	req      http.Request
	parent   context.Context // net/http's, which has no deadline
	id       string
	deadline time.Time // set before the handler runs
	sw       statusWriter
	buf      bufferedResponse
	timer    *time.Timer
	lost     bool // the timer fired, but finish took w
	mu       sync.Mutex
	w        http.ResponseWriter // vet:guardedby mu
	ctxMu    sync.Mutex          // taken under mu by expire
	done     chan struct{}       // vet:guardedby ctxMu
	err      error               // vet:guardedby ctxMu
	unhook   func() bool         // vet:guardedby ctxMu // stops Done's registration on parent
}

var calls = sync.Pool{New: func() any {
	c := &call{buf: bufferedResponse{header: make(http.Header)}}
	c.timer = time.AfterFunc(time.Hour, c.expire)
	c.timer.Stop()
	return c
}}

func (c *call) Deadline() (time.Time, bool) { return c.deadline, !c.deadline.IsZero() }

func (c *call) Value(key any) any {
	if key == ctxRequestID {
		return c.id
	}
	return c.parent.Value(key)
}

// Done is made, and with it a registration for the parent's
// cancellation, when a handler asks; until then Err polls.
func (c *call) Done() <-chan struct{} {
	c.ctxMu.Lock()
	defer c.ctxMu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else if c.parent.Done() != nil {
			c.unhook = context.AfterFunc(c.parent, func() { _ = c.Err() })
		}
	}
	done := c.done // ctxMu guards the field; the channel is there to be shared
	return done
}

func (c *call) Err() error { return c.cancel(c.parent.Err()) }

// cancel ends the context with err (if any) once, and says why it ended.
func (c *call) cancel(err error) error {
	c.ctxMu.Lock()
	defer c.ctxMu.Unlock()
	if c.err == nil && err != nil {
		c.err = err
		if c.done != nil {
			close(c.done)
		}
	}
	return c.err
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

// withRequestID takes every request's call and gives it an id — the
// client's X-Request-ID (spelt canonically: a copy otherwise), else a
// fresh one — echoed in the response header for correlating logs.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 128 {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		calls.Get().(*call).serve(h, w, r, id)
	})
}

// serve runs h on c.req, r with the call as its context, and releases
// the call. WithContext inlines here, so that copy is the only one
// (TestServeAllocs).
func (c *call) serve(h http.Handler, w http.ResponseWriter, r *http.Request, id string) {
	c.id, c.parent, c.req = id, r.Context(), *r.WithContext(c)
	h.ServeHTTP(w, &c.req)
	c.release()
}

// withRecover turns a handler panic into a JSON 500 with the request
// id, keeping the server alive; under the timeout layer it discards the
// reply the handler had begun, so the client gets the envelope alone.
func withRecover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				log.Printf("web: panic serving %s %s (request %s): %v\n%s",
					r.Method, r.URL.Path, RequestID(r.Context()), p, debug.Stack())
				if b, ok := w.(*bufferedResponse); ok {
					b.reset()
				}
				writeError(w, r, http.StatusInternalServerError, CodeInternal, "internal error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// maxPooled is the largest buffer a pool keeps.
const maxPooled = 64 << 10

// bufferedResponse holds a handler's whole response, for the timeout
// layer to flush or discard for a 504 — never to interleave the two.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
	shared []byte // when set, the body instead, by reference (writeShared)
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

// reset empties the response, keeping its header map and body buffer.
func (b *bufferedResponse) reset() {
	clear(b.header)
	b.status, b.shared = 0, nil
	b.body.Reset()
}

// flush writes the response onto w, header values by reference (reset
// drops them; net/http only reads them), its length stated.
func (b *bufferedResponse) flush(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	body := b.body.Bytes()
	if b.shared != nil {
		body = b.shared
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(max(b.status, http.StatusOK))
	_, _ = w.Write(body)
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

// expire cancels the handler's context and sends the JSON 504, with
// Connection: close since the handler still holds the connection's
// goroutine. It writes under mu, so the request cannot end meanwhile.
func (c *call) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.w
	if w == nil {
		return
	}
	c.w = nil
	_ = c.cancel(context.DeadlineExceeded)
	mTimeouts.Inc()
	w.Header().Set("Connection", "close")
	writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "request timed out", Code: CodeTimeout, RequestID: c.id})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// finish runs when the handler returns: unless expire took w, it stops
// the timer and flushes the reply.
func (c *call) finish() {
	c.mu.Lock()
	w := c.w
	c.w = nil
	c.mu.Unlock()
	stopped := c.timer.Stop()
	if w != nil {
		c.buf.flush(w)
	}
	c.lost = !stopped && w != nil
}

// release pools the call again unless something may still act on it: a
// timer that fired but lost (it may still wait for mu), or Done's
// registration once it ran. One whose buffer outgrew maxPooled is
// dropped too.
func (c *call) release() {
	c.ctxMu.Lock()
	unhook := c.unhook
	c.done, c.err, c.unhook = nil, nil, nil
	c.ctxMu.Unlock()
	if !c.lost && (unhook == nil || unhook()) && c.buf.body.Cap() <= maxPooled {
		c.buf.reset()
		c.req, c.parent, c.deadline, c.sw = http.Request{}, nil, time.Time{}, statusWriter{}
		calls.Put(c)
	}
}

// withTimeout bounds a request's wall time (see call); a timed-out
// handler runs on until it sees its context cancelled, writing nowhere.
func withTimeout(d time.Duration, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := r.Context().(*call) // withRequestID's
		c.deadline = time.Now().Add(d)
		c.mu.Lock()
		c.w = w
		c.mu.Unlock()
		c.timer.Reset(d)
		defer c.finish()
		h.ServeHTTP(&c.buf, r)
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
		c := r.Context().(*call) // withRequestID's
		c.sw = statusWriter{ResponseWriter: w}
		defer func() {
			m.inflight.Add(-1)
			mInflight.Add(-1)
			m.observe(c.sw.status, time.Since(start))
		}()
		h.ServeHTTP(&c.sw, r)
	})
}
