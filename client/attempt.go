package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
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
// when http.RoundTripper lets a request be reused: its response body
// closed, its request body closed by the transport and every
// registration stopped. One whose timer fired, or whose send failed with
// no response, is dropped, since the transport may still act on it.
type attempt struct {
	req   *http.Request
	id    []string // req.Header's X-Request-Id
	body  reqBody
	again func() (io.ReadCloser, error) // GetBody: a new reader, as the transport may still hold body
	pool  *sync.Pool                    // timed or untimed for good, so Done and Deadline never change
	timer *time.Timer                   // nil without a Timeout
	done  chan struct{}                 // likewise; closed only by expire
	at    time.Time
	resp  io.ReadCloser // the response's body, set by send
	stop0 func() bool   // the first registration's stop, made once
	holds atomic.Int32  // the response, an open body and live registrations
	mu    sync.Mutex
	err   error    // vet:guardedby mu
	fns   []func() // vet:guardedby mu // registered; nil once stopped
}

// reqBody is an attempt's request body.
type reqBody struct {
	bytes.Reader
	raw  []byte
	open atomic.Bool // until the transport's first Close
	a    *attempt
}

// The pools have no New, which would be an initialization cycle: the
// stops a New builds put into the pool.
var timed, untimed sync.Pool

// startAttempt takes an attempt from the pool, due in timeout (none if
// zero), and sets its request: u is only read, id is the call's.
func startAttempt(timeout time.Duration, method string, u *url.URL, id string, body []byte) *attempt {
	pool := &untimed
	if timeout > 0 {
		pool = &timed
	}
	a, _ := pool.Get().(*attempt)
	if a == nil {
		a = &attempt{id: make([]string, 1), pool: pool}
		if timeout > 0 {
			a.done = make(chan struct{})
			a.timer = time.AfterFunc(time.Hour, a.expire)
			a.timer.Stop()
		}
		h := http.Header{"X-Request-Id": a.id, "Accept-Encoding": identity}
		a.req = (&http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: h}).WithContext(a)
		a.body.a = a
		a.again = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(a.body.raw)), nil }
		a.stop0 = func() bool { return a.stop(0) }
	}
	r := a.req
	r.Method, r.URL, r.Host, a.id[0] = method, u, u.Host, id
	r.Body, r.GetBody, r.ContentLength = nil, nil, 0
	a.holds.Store(1) // the response
	if body != nil {
		r.Header["Content-Type"] = jsonType
		a.body.Reset(body)
		// GetBody lets the transport resend on a dead kept-alive connection.
		r.Body, r.GetBody, r.ContentLength, a.body.raw = &a.body, a.again, int64(len(body)), body
		a.body.open.Store(true)
		a.holds.Add(1)
	} else {
		delete(r.Header, "Content-Type")
	}
	if timeout > 0 {
		a.at = time.Now().Add(timeout)
		a.timer.Reset(timeout)
	}
	return a
}

func (a *attempt) Deadline() (time.Time, bool) { return a.at, a.timer != nil }
func (a *attempt) Done() <-chan struct{}       { return a.done }

// Value holds nothing, and so reads no field a later attempt writes: a
// dial the transport leaves running past the attempt still asks.
func (a *attempt) Value(any) any { return nil }

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

// Close is the transport's, which may call it more than once.
func (b *reqBody) Close() error {
	if b.open.CompareAndSwap(true, false) {
		b.a.let()
	}
	return nil
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
