package client

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// reuseCheck is a RoundTripper in front of a real transport that fails
// the test when a request comes back to it while its last use is still
// open (the reply the transport returned, or the write of the request,
// whose end, the trace's WroteRequest, it passes on a millisecond late),
// while a registration on its context is live (it stops one a
// millisecond after the reply's Close), or after its send failed with no
// reply; and when a request's method, URL, headers and body do not
// belong to one call.
type reuseCheck struct {
	t     *testing.T
	rt    http.RoundTripper
	mu    sync.Mutex
	state map[*http.Request]*use
}

// later runs f a millisecond from now, as a transport's own goroutine
// may; f touches only the check's state, the request's trace and its
// registration, so nothing waits for it.
func (c *reuseCheck) later(f func()) {
	go func() {
		time.Sleep(time.Millisecond)
		f()
	}()
}

// use is what reuseCheck knows of a request's last send.
type use struct {
	reply, body, hook, dead bool // reply open, request being written, registered, send failed
}

// lateTrace is a request's context whose trace is the check's: the
// request's own context, an attempt, still takes the transport's
// registrations.
type lateTrace struct {
	afterFuncer
	traced context.Context
}

type afterFuncer interface {
	context.Context
	AfterFunc(func()) (stop func() bool)
}

func (l lateTrace) Value(key any) any { return l.traced.Value(key) }

func (c *reuseCheck) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	u := c.state[r]
	if u == nil {
		u = new(use)
		c.state[r] = u
	}
	if u.reply || u.body || u.hook || u.dead {
		c.t.Errorf("request %p sent again: reply open %v, being written %v, registered %v, send failed %v", r, u.reply, u.body, u.hook, u.dead)
	}
	u.body, u.hook = r.Body != nil, r.Context().Done() != nil
	c.mu.Unlock()
	// As HTTP/1's read loop does, stop a registration on the context (if
	// it can end) only after the reply's body is closed.
	stop := context.AfterFunc(r.Context(), func() {})
	unhook := func() {
		c.later(func() {
			c.mu.Lock()
			u.hook = false
			c.mu.Unlock()
			stop()
		})
	}

	id := r.Header.Get("X-Request-Id")
	if _, err := hex.DecodeString(id); err != nil || len(id) != 16 || r.Method != "POST" || r.Host != r.URL.Host ||
		r.Header.Get("Content-Type") != "application/json" || r.Header.Get("Accept-Encoding") != "identity" {
		c.t.Errorf("request %s %s: host %q, header %v", r.Method, r.URL, r.Host, r.Header)
	}
	// As a transport may, end a write after RoundTrip returns.
	wrote := httptrace.ContextClientTrace(r.Context()).WroteRequest
	sent := r.WithContext(lateTrace{r.Context().(afterFuncer), httptrace.WithClientTrace(context.Background(),
		&httptrace.ClientTrace{WroteRequest: func(info httptrace.WroteRequestInfo) {
			c.later(func() {
				c.mu.Lock()
				u.body = false
				c.mu.Unlock()
				if wrote != nil {
					wrote(info)
				}
			})
		}})})
	route, length := r.URL.Path, r.ContentLength
	if r.Body != nil {
		sent.Body = &checkBody{ReadCloser: r.Body, closed: func(b []byte) {
			if int64(len(b)) == length && !belongs(route, b) {
				c.t.Errorf("%s carried body %s", route, b)
			}
		}}
	}
	resp, err := c.rt.RoundTrip(sent)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		u.dead = true
		unhook()
		return nil, err
	}
	u.reply = true
	resp.Body = &checkBody{ReadCloser: resp.Body, closed: func([]byte) {
		c.mu.Lock()
		u.reply = false
		c.mu.Unlock()
		unhook()
	}}
	return resp, nil
}

// checkBody keeps what is read through it for closed, called at the
// first Close.
type checkBody struct {
	io.ReadCloser
	read   []byte
	closed func(read []byte)
}

func (b *checkBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read = append(b.read, p[:n]...)
	return n, err
}

func (b *checkBody) Close() error {
	if b.closed != nil {
		b.closed(b.read)
		b.closed = nil
	}
	return b.ReadCloser.Close()
}

// stormCall is the number k a storm call's body carries and the route it
// went to, or ok false.
func stormCall(route string, body []byte) (k int, verb string, ok bool) {
	for _, f := range []struct{ verb, prefix, suffix string }{
		{"/query", `{"path":"//n`, `"}`},
		{"/edit", `{"op":"insert-element","parent":`, `,"name":"e"}`},
	} {
		if digits, found := bytes.CutPrefix(body, []byte(f.prefix)); found && bytes.HasSuffix(digits, []byte(f.suffix)) {
			k, err := strconv.Atoi(string(digits[:len(digits)-len(f.suffix)]))
			return k, f.verb, err == nil
		}
	}
	return 0, "", false
}

// belongs reports whether body is a storm call to route: its verb, and
// the document g<k/1000>.
func belongs(route string, body []byte) bool {
	k, verb, ok := stormCall(route, body)
	return ok && route == fmt.Sprintf("/v1/docs/g%d%s", k/1000, verb)
}

// TestRequestReuseStorm: 8 callers, half with a 15 ms Timeout and half
// with none, share one transport and the attempt pool against a server
// that answers call k by k mod 7: 1, 503 to the first attempt; 2, a
// dropped connection; 3, a reply stalled mid-body for 40 ms; else at
// once. reuseCheck sees every attempt; the server checks that each
// complete body belongs to its route and that an id, kept by a call's
// retries, names one call. A body that breaks off is a timed caller's
// request abandoned at its deadline before the body was written. A reply that arrives is its own call's, a stalled one never
// arrives under a Timeout, and no call times out before its deadline.
func TestRequestReuseStorm(t *testing.T) {
	var mu sync.Mutex
	ids := map[string]int{} // request id → k
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			// The caller's deadline fired before its body was written: an
			// abandoned request, whose id is not recorded. Only the timed
			// callers, the odd g, abandon one.
			name, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/docs/g"), "/")
			if g, gerr := strconv.Atoi(name); gerr != nil || g%2 == 0 {
				t.Errorf("server: the body of %s broke off (%v), and its caller has no deadline", r.URL.Path, err)
			}
			return
		}
		k, verb, _ := stormCall(r.URL.Path, body)
		id := r.Header.Get("X-Request-Id")
		mu.Lock()
		prev, seen := ids[id]
		ids[id] = k
		mu.Unlock()
		if !belongs(r.URL.Path, body) || seen && prev != k {
			t.Errorf("server: %s carried %s under id %s (of call %d before)", r.URL.Path, body, id, prev)
		}
		reply := fmt.Sprintf(`{"count":1,"ids":[%d]}`, k)
		if verb == "/edit" {
			reply = fmt.Sprintf(`{"results":[{"ids":[%d],"relabeled":0}],"applied":1}`, k)
		}
		switch k % 7 {
		case 1:
			if !seen {
				w.WriteHeader(http.StatusServiceUnavailable)
				_, _ = io.WriteString(w, `{"error":"evicted","code":"unavailable","request_id":"`+id+`"}`)
				return
			}
		case 2:
			conn, _, err := http.NewResponseController(w).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		case 3:
			w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
			_, _ = io.WriteString(w, reply[:len(reply)/2])
			_ = http.NewResponseController(w).Flush()
			time.Sleep(40 * time.Millisecond)
			_, _ = io.WriteString(w, reply[len(reply)/2:])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = io.WriteString(w, reply)
	}))
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	check := &reuseCheck{t: t, rt: tr, state: map[*http.Request]*use{}}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		timeout := time.Duration(g%2) * 15 * time.Millisecond
		c, err := Dial(ts.URL, WithHTTPClient(&http.Client{Transport: check, Timeout: timeout}))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := &Doc{c: c, name: fmt.Sprintf("g%d", g)}
			for i := 0; i < 40; i++ {
				k, start := g*1000+i, time.Now()
				var got []int
				var err error
				if i%2 == 0 {
					got, err = d.Query(fmt.Sprintf("//n%d", k))
				} else {
					var ack EditAck
					ack, err = d.InsertElement(k, 0, "e")
					if err == nil {
						got = ack.Results[0].IDs
					}
				}
				switch {
				case err == nil && !reflect.DeepEqual(got, []int{k}):
					t.Errorf("call %d answered %v", k, got)
				case err != nil && k%7 != 2 && !(timeout > 0 && isTimeout(err)):
					t.Errorf("call %d: %v", k, err)
				case err == nil && k%7 == 2:
					t.Errorf("call %d answered over a dropped connection", k)
				case err == nil && k%7 == 3 && timeout > 0:
					t.Errorf("call %d answered after its deadline", k)
				case err != nil && isTimeout(err) && time.Since(start) < timeout:
					t.Errorf("call %d timed out after %v, before its deadline", k, time.Since(start))
				}
			}
		}(g)
	}
	wg.Wait()
	check.mu.Lock()
	defer check.mu.Unlock()
	if len(check.state) >= 8*40 {
		t.Errorf("%d requests for %d calls: attempts are not reused", len(check.state), 8*40)
	}
	t.Logf("%d requests for %d calls", len(check.state), 8*40)
}
