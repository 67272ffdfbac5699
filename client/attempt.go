package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// attempt is one attempt's whole request, pooled as the server pools its
// call (internal/web): an *http.Request made once with the attempt as its
// context, its header map and its body reader, and under the client's
// Timeout the deadline that bounds the attempt from the send to the Close
// of the response body it wraps; without one its context is as
// context.Background. The transport's context.WithCancelCause registers
// on it through AfterFunc, not with a goroutine. It goes back to the pool
// when no part of the transport can still touch it: its response body
// closed, every registration stopped and, for a request with a body, the
// transport's last write of it done. One whose timer fired, or whose send
// failed with no response, is dropped, since the transport may still act
// on it.
//
// The body is a *bytes.Reader under io.NopCloser, which net/http writes
// in the same buffer as the headers: one socket write a call, where a
// reader of another type costs a write of its own for the headers. Its
// Close tells nothing, so the hold on the body ends at WroteRequest
// instead, which the HTTP/1 and HTTP/2 transports report after each
// write of a request, its body read and closed. A write is of one body:
// a resend takes a new one from GetBody, which takes the hold back if a
// write had let it go, and a transport that fails a write waits for it to
// end before it resends. So when the hold ends, the last write of the
// request is done. A transport that reports no WroteRequest keeps its
// body-carrying attempts from the pool, which is safe. Attempts with and
// without a body have pools of their own: the write of a body-less
// request takes no hold, so its trace, read by that write however late,
// must never be one a body-carrying use sets.
type attempt struct {
	req    *http.Request
	id     [1]string             // req.Header's X-Request-Id
	body   bytes.Reader          // req.Body's, under io.NopCloser
	raw    []byte                // the body's bytes, for req.GetBody
	trace  httptrace.ClientTrace // its WroteRequest ends the hold on the body
	unsent atomic.Bool           // a body the transport may still write
	pool   *sync.Pool            // of its kind for good, so Done and Deadline never change
	timer  *time.Timer           // nil without a Timeout
	done   chan struct{}         // likewise; closed only by expire
	at     time.Time
	resp   io.ReadCloser // the response's body, set by send
	stop0  func() bool   // the first registration's stop, made once
	holds  atomic.Int32  // the response, an unsent body and live registrations
	mu     sync.Mutex
	err    error    // vet:guardedby mu
	fns    []func() // vet:guardedby mu // registered; nil once stopped
}

// pools holds attempts by [timed][carries a body]. They have no New,
// which would be an initialization cycle: the stops a New builds put
// into the pool.
var pools [2][2]sync.Pool

// startAttempt takes an attempt from the pool, due in timeout (none if
// zero), and sets its request: u is only read, id is the call's.
func startAttempt(timeout time.Duration, method string, u *url.URL, id string, body []byte) *attempt {
	pool := &pools[b2i(timeout > 0)][b2i(body != nil)]
	a, _ := pool.Get().(*attempt)
	if a == nil {
		a = &attempt{pool: pool}
		if timeout > 0 {
			a.done = make(chan struct{})
			a.timer = time.AfterFunc(time.Hour, a.expire)
			a.timer.Stop()
		}
		h := http.Header{"X-Request-Id": a.id[:], "Accept-Encoding": identity}
		a.req = (&http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: h}).WithContext(a)
		a.stop0 = func() bool { return a.stop(0) }
		if body != nil {
			h["Content-Type"] = jsonType
			a.trace.WroteRequest = func(httptrace.WroteRequestInfo) {
				if a.unsent.Swap(false) {
					a.let()
				}
			}
			// GetBody lets the transport resend on a dead kept-alive connection.
			a.req.Body, a.req.GetBody = io.NopCloser(&a.body), func() (io.ReadCloser, error) {
				if !a.unsent.Swap(true) {
					a.holds.Add(1)
				}
				return io.NopCloser(bytes.NewReader(a.raw)), nil
			}
		}
	}
	r := a.req
	r.Method, r.URL, r.Host, a.id[0] = method, u, u.Host, id
	a.holds.Store(1) // the response
	if body != nil {
		a.body.Reset(body)
		r.ContentLength, a.raw = int64(len(body)), body
		a.unsent.Store(true)
		a.holds.Add(1)
	}
	if timeout > 0 {
		a.at = time.Now().Add(timeout)
		a.timer.Reset(timeout)
	}
	return a
}

func (a *attempt) Deadline() (time.Time, bool) { return a.at, a.timer != nil }
func (a *attempt) Done() <-chan struct{}       { return a.done }

// Value holds the trace and nothing else, and reads no field a later
// attempt writes: a dial the transport leaves running past the attempt
// still asks.
func (a *attempt) Value(key any) any {
	if key == traceKey {
		return &a.trace
	}
	return nil
}

// traceKey is the key httptrace.ContextClientTrace looks a trace up by,
// learned once from WithClientTrace, which asks its parent context for a
// trace to compose with.
var traceKey = func() (key any) {
	httptrace.WithClientTrace(keyProbe{context.Background(), &key}, new(httptrace.ClientTrace))
	return key
}()

// keyProbe is a context that records the key it is asked for.
type keyProbe struct {
	context.Context
	key *any
}

func (p keyProbe) Value(key any) any {
	*p.key = key
	return nil
}

func (a *attempt) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// AfterFunc is context.AfterFunc for this context: f runs when the
// deadline passes unless stop, which reports whether it stopped f, is
// called first.
func (a *attempt) AfterFunc(f func()) (stop func() bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		go f()
		return func() bool { return false }
	}
	i := len(a.fns)
	a.fns = append(a.fns, f)
	a.holds.Add(1)
	if i == 0 {
		return a.stop0
	}
	return func() bool { return a.stop(i) }
}

// stop unregisters the i-th function.
func (a *attempt) stop(i int) bool {
	a.mu.Lock()
	stopped := a.err == nil && a.fns[i] != nil
	if stopped {
		a.fns[i] = nil
	}
	a.mu.Unlock()
	if stopped {
		a.let()
	}
	return stopped
}

// expire ends the context and runs what is registered on it, outside
// mu: a registered function reads Err.
func (a *attempt) expire() {
	a.mu.Lock()
	a.err = context.DeadlineExceeded
	close(a.done)
	fns := a.fns // frozen: stop and AfterFunc see err
	a.mu.Unlock()
	for _, f := range fns {
		if f != nil {
			f()
		}
	}
}

func (a *attempt) Read(p []byte) (int, error) { return a.resp.Read(p) }

// Close closes the response body and, unless the timer fired, lets the
// attempt go; it is called once.
func (a *attempt) Close() error {
	err := a.resp.Close()
	if a.timer == nil || a.timer.Stop() {
		a.let()
	}
	return err
}

// drop ends an attempt whose send failed: it is never pooled again.
func (a *attempt) drop() {
	if a.timer != nil {
		a.timer.Stop()
	}
}

// let drops one hold on the attempt, and pools it when none is left.
func (a *attempt) let() {
	if a.holds.Add(-1) == 0 {
		a.mu.Lock()
		a.fns = a.fns[:0]
		a.mu.Unlock()
		a.resp = nil
		a.pool.Put(a)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
