package client

import (
	"context"
	"io"
	"sync"
	"time"
)

// deadline is one attempt's context under the client's Timeout, pooled
// with its timer as the server pools its call (internal/web): it bounds
// the attempt from the send to the Close of the response body it wraps.
// The transport's context.WithCancelCause registers on it through
// AfterFunc, not with a goroutine. It goes back to the pool when its
// timer was stopped and every registration has been stopped; one whose
// timer fired is dropped, since the transport may still act on it.
type deadline struct {
	timer *time.Timer
	done  chan struct{} // closed only by expire
	at    time.Time
	body  io.ReadCloser // the response's, set by send
	stop0 func() bool   // the first registration's stop, made once
	mu    sync.Mutex
	err   error    // vet:guardedby mu
	fns   []func() // vet:guardedby mu // registered; nil once stopped
	live  int      // vet:guardedby mu // registrations not yet stopped
	freed bool     // vet:guardedby mu // release stopped the timer
}

// deadlines has no New, which would be an initialization cycle: the
// stops a New builds put into the pool.
var deadlines sync.Pool

// startDeadline takes a deadline from the pool, due in timeout.
func startDeadline(timeout time.Duration) *deadline {
	d, _ := deadlines.Get().(*deadline)
	if d == nil {
		d = &deadline{done: make(chan struct{})}
		d.timer = time.AfterFunc(time.Hour, d.expire)
		d.timer.Stop()
		d.stop0 = func() bool { return d.stop(0) }
	}
	d.at = time.Now().Add(timeout)
	d.timer.Reset(timeout)
	return d
}

func (d *deadline) Deadline() (time.Time, bool) { return d.at, true }
func (d *deadline) Done() <-chan struct{}       { return d.done }

// Value holds nothing, and so reads no field a later attempt writes: a
// dial the transport leaves running past the attempt still asks.
func (d *deadline) Value(any) any { return nil }

func (d *deadline) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// AfterFunc is context.AfterFunc for this context: f runs when the
// deadline passes unless stop, which reports whether it stopped f, is
// called first.
func (d *deadline) AfterFunc(f func()) (stop func() bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		go f()
		return func() bool { return false }
	}
	i := len(d.fns)
	d.fns = append(d.fns, f)
	d.live++
	if i == 0 {
		return d.stop0
	}
	return func() bool { return d.stop(i) }
}

// stop unregisters the i-th function, and recycles the deadline if it
// was the last one and release has stopped the timer.
func (d *deadline) stop(i int) bool {
	d.mu.Lock()
	if d.err != nil || d.fns[i] == nil {
		d.mu.Unlock()
		return false
	}
	d.fns[i] = nil
	d.live--
	idle := d.idleLocked()
	d.mu.Unlock()
	if idle {
		deadlines.Put(d)
	}
	return true
}

// expire ends the context and runs what is registered on it, outside
// mu: a registered function reads Err.
func (d *deadline) expire() {
	d.mu.Lock()
	d.err = context.DeadlineExceeded
	close(d.done)
	fns := d.fns // frozen: stop and AfterFunc see err
	d.mu.Unlock()
	for _, f := range fns {
		if f != nil {
			f()
		}
	}
}

func (d *deadline) Read(p []byte) (int, error) { return d.body.Read(p) }

// Close closes the body and releases the deadline; it is called once.
func (d *deadline) Close() error {
	err := d.body.Close()
	d.release()
	return err
}

// release ends the attempt: it stops the timer and, unless the timer
// fired, lets the last stopped registration recycle the deadline.
func (d *deadline) release() {
	stopped := d.timer.Stop()
	d.mu.Lock()
	d.freed = stopped
	idle := d.idleLocked()
	d.mu.Unlock()
	if idle {
		deadlines.Put(d)
	}
}

// idleLocked reports whether the timer was stopped and nothing is
// registered any more, and if so clears the deadline for the pool.
//
// vet:holds d.mu
func (d *deadline) idleLocked() bool {
	if !d.freed || d.live > 0 {
		return false
	}
	d.fns, d.freed, d.body = d.fns[:0], false, nil
	return true
}
