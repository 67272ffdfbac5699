package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// isTimeout reports whether err is what an attempt that outlived its
// Timeout fails with.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ne) && ne.Timeout()
}

// TestClientTimeoutOverTCP: a call whose handler stalls past the
// client's Timeout fails at the deadline with a timeout error, the
// deadlines that fired are not handed to later calls, and 200 such calls
// leave no goroutine behind once the transport's idle connections are
// closed.
func TestClientTimeoutOverTCP(t *testing.T) {
	const timeout = 50 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, _ := io.ReadAll(r.Body); bytes.Contains(body, []byte("fast")) {
			_, _ = io.WriteString(w, `{"count":0,"ids":[]}`)
			return
		}
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer ts.Close()
	tr := &http.Transport{}
	c, err := Dial(ts.URL, WithHTTPClient(&http.Client{Transport: tr, Timeout: timeout}))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &Doc{c: c, name: "stall"}
			for i := 0; i < 25; i++ {
				start := time.Now()
				_, err := d.Query("//x")
				if elapsed := time.Since(start); !isTimeout(err) || elapsed > timeout+100*time.Millisecond {
					t.Errorf("stalled call: %v after %v, want a timeout within %v", err, elapsed, timeout+100*time.Millisecond)
					return
				}
			}
		}()
	}
	wg.Wait()
	d := &Doc{c: c, name: "fast"}
	for i := 0; i < 20; i++ {
		if _, err := d.Query("//fast"); err != nil {
			t.Fatalf("call %d after the stalled ones: %v", i, err)
		}
	}
	tr.CloseIdleConnections()
	for end := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the calls, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestClientTimeoutStorm: 8 callers with timeouts of 1 to 5 ms share
// one transport and the deadline pool against a handler that answers
// query //nK with id K after K mod 11 ms. A reply that arrives decodes
// to its own request's answer, so no fired deadline ever reaches another
// call.
func TestClientTimeoutStorm(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		k, _ := strconv.Atoi(string(bytes.TrimSuffix(bytes.TrimPrefix(body, []byte(`{"path":"//n`)), []byte(`"}`))))
		time.Sleep(time.Duration(k%11) * time.Millisecond)
		reply := fmt.Sprintf(`{"count":1,"ids":[%d]}`, k)
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = io.WriteString(w, reply)
	}))
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()

	var wg sync.WaitGroup
	var mu sync.Mutex
	answered, timedOut := 0, 0
	for g := 0; g < 8; g++ {
		c, err := Dial(ts.URL, WithHTTPClient(&http.Client{Transport: tr, Timeout: time.Duration(1+g%5) * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := &Doc{c: c, name: "storm"}
			for i := 0; i < 50; i++ {
				k := 1 + g*1000 + i
				ids, err := d.Query(fmt.Sprintf("//n%d", k))
				mu.Lock()
				if err == nil {
					answered++
				} else {
					timedOut++
				}
				mu.Unlock()
				if err == nil && !reflect.DeepEqual(ids, []int{k}) {
					t.Errorf("query //n%d answered %v", k, ids)
				} else if err != nil && !isTimeout(err) {
					t.Errorf("query //n%d: %v, want a timeout", k, err)
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("%d answered, %d timed out", answered, timedOut)
	if answered == 0 || timedOut == 0 {
		t.Errorf("%d answered, %d timed out: the storm must see both", answered, timedOut)
	}
}

// lateTransport registers on each request's context as net/http's
// transport does and, like its read loop, stops that registration late:
// only once the next request has registered. A stalled reply's body
// ends when its registration runs. The one exception, query //h2,
// stops its registration at once, as an HTTP/2 transport does when its
// RoundTrip returns, and its body ends with the context.
type lateTransport struct{ pending func() bool }

func (lt *lateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	body, _ := io.ReadAll(r.Body)
	ctx := r.Context()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gone := make(chan struct{})
	stop := context.AfterFunc(ctx, func() { close(gone) })
	if lt.pending != nil {
		lt.pending()
	}
	lt.pending = stop
	reply := io.ReadCloser(stallBody{gone, ctx})
	switch {
	case bytes.Contains(body, []byte("fast")):
		reply = io.NopCloser(bytes.NewReader([]byte(`{"count":0,"ids":[]}`)))
	case bytes.Contains(body, []byte("h2")):
		stop()
		lt.pending = nil
		reply = stallBody{ctx.Done(), ctx}
	}
	return &http.Response{StatusCode: http.StatusOK, Body: reply, ContentLength: -1, Request: r}, nil
}

// stallBody ends when end is closed, failing with ctx's error, or after
// a second, with an error that is not a timeout.
type stallBody struct {
	end <-chan struct{}
	ctx context.Context
}

func (b stallBody) Read([]byte) (int, error) {
	select {
	case <-b.end:
		return 0, b.ctx.Err()
	case <-time.After(time.Second):
		return 0, errors.New("the deadline never reached the transport")
	}
}

func (stallBody) Close() error { return nil }

// TestDeadlineRecycling: a deadline goes back to the pool only once its
// timer was stopped and the transport has stopped its registration. One
// recycled while still registered would lose the next call's
// registration to the late stop; one recycled after it fired would fail
// the next call at once.
func TestDeadlineRecycling(t *testing.T) {
	c, err := Dial("http://127.0.0.1:1", WithHTTPClient(&http.Client{Transport: &lateTransport{}, Timeout: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	d := &Doc{c: c, name: "doc"}
	for i := 0; i < 10; i++ {
		for _, q := range []string{"//fast", "//stall", "//h2", "//fast"} {
			_, err := d.Query(q)
			if q == "//fast" && err != nil || q != "//fast" && !isTimeout(err) {
				t.Fatalf("round %d, %s: %v", i, q, err)
			}
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSendHoldsTransportToClientRules: what a transport returns is held
// to the rules http.Client holds it to, and a redirect is not followed
// but comes back as an *APIError.
func TestSendHoldsTransportToClientRules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		resp   *http.Response
		status int // of the *APIError; 0: nil error; -1: a *url.Error
	}{
		{"nil response", nil, -1},
		{"nil body with a length", &http.Response{StatusCode: http.StatusOK, ContentLength: 2}, -1},
		{"nil body, empty", &http.Response{StatusCode: http.StatusOK}, 0},
		{"redirect", &http.Response{StatusCode: http.StatusFound, ContentLength: -1, Body: http.NoBody,
			Header: http.Header{"Location": {"/v1/docs/elsewhere/sync"}}}, http.StatusFound},
	} {
		rt := roundTripFunc(func(*http.Request) (*http.Response, error) { return tc.resp, nil })
		c, err := Dial("http://127.0.0.1:1", WithHTTPClient(&http.Client{Transport: rt}))
		if err != nil {
			t.Fatal(err)
		}
		err = (&Doc{c: c, name: "doc"}).Sync()
		var ae *APIError
		var ue *url.Error
		switch {
		case tc.status == 0 && err != nil,
			tc.status > 0 && (!errors.As(err, &ae) || ae.Status != tc.status),
			tc.status < 0 && !errors.As(err, &ue):
			t.Errorf("%s: %v (%T)", tc.name, err, err)
		}
	}
}
