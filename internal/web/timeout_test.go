package web

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"testing"
	"time"

	"repro/internal/metrics"
)

// slowServer is New's whole stack over a TCP listener with one more
// route, GET /v1/slow, served by h under a d timeout.
func slowServer(t *testing.T, d time.Duration, h http.HandlerFunc) *httptest.Server {
	s, _ := newTestServer(t, d)
	mux := http.NewServeMux()
	route(mux, "GET /v1/slow", "slowtcp", d, h)
	s.handler = withRequestID(mux)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// envelope decodes a body that must be the error envelope and nothing
// more.
func envelope(t *testing.T, body []byte) errorBody {
	t.Helper()
	var e errorBody
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil || dec.More() {
		t.Fatalf("body is not the envelope alone: %q (%v)", body, err)
	}
	return e
}

// TestTimeoutOverTCP: a handler that ignores its deadline still holds
// the connection's goroutine, so the client must get its 504 — typed,
// carrying the request id, closing the connection — at the deadline,
// and nothing of the handler's late reply ever after.
func TestTimeoutOverTCP(t *testing.T) {
	const d = 50 * time.Millisecond
	ctxs, release := make(chan context.Context, 1), make(chan struct{})
	ts := slowServer(t, d, func(w http.ResponseWriter, r *http.Request) {
		switch q := r.URL.Query(); {
		case q.Has("fast"):
			_, _ = io.WriteString(w, "ok\n")
			return
		case q.Has("wait"):
			<-r.Context().Done()
			return
		}
		ctxs <- r.Context()
		<-release
		_, _ = io.WriteString(w, "too late\n")
	})
	timeouts := mTimeouts.Value()
	c5xx := metrics.Default.Counter("web_route_slowtcp_responses_5xx_total").Value()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprint(conn, "GET /v1/slow HTTP/1.1\r\nHost: test\r\nX-Request-ID: tcp-timeout\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusGatewayTimeout || elapsed > d+100*time.Millisecond {
		t.Fatalf("%d after %v (%v), want a 504 within %v", resp.StatusCode, elapsed, err, d+100*time.Millisecond)
	}
	if e := envelope(t, body); e.Code != CodeTimeout || e.RequestID != "tcp-timeout" || resp.Header.Get("X-Request-Id") != "tcp-timeout" {
		t.Errorf("504 envelope %+v, header id %q", e, resp.Header.Get("X-Request-Id"))
	}
	if !resp.Close {
		t.Error("the 504 does not close its connection")
	}
	select {
	case ctx := <-ctxs:
		select {
		case <-ctx.Done():
		default:
			t.Error("the timed-out handler's context is not done")
		}
		if ctx.Err() != context.DeadlineExceeded {
			t.Errorf("handler context error %v", ctx.Err())
		}
	case <-time.After(time.Second):
		t.Fatal("handler never ran")
	}
	close(release)
	// The server closes the connection once the handler returns; its
	// late reply must not precede the close.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rest, err := io.ReadAll(br); len(rest) != 0 || err != nil {
		t.Errorf("after the 504 the connection carried %q (%v)", rest, err)
	}
	if got := mTimeouts.Value() - timeouts; got != 1 {
		t.Errorf("web_timeouts_total rose by %d", got)
	}
	if got := metrics.Default.Counter("web_route_slowtcp_responses_5xx_total").Value() - c5xx; got != 1 {
		t.Errorf("the route's 5xx counter rose by %d", got)
	}

	// The next call through a client that saw the 504 goes out on a new
	// connection and succeeds.
	var reused []bool
	trace := &httptrace.ClientTrace{GotConn: func(i httptrace.GotConnInfo) { reused = append(reused, i.Reused) }}
	hc := ts.Client()
	get := func(query string) *http.Response {
		req, _ := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), "GET", ts.URL+"/v1/slow"+query, nil)
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get("?wait"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("second blocked call: %d", resp.StatusCode)
	}
	if resp := get("?fast"); resp.StatusCode != http.StatusOK || len(reused) != 2 || reused[1] {
		t.Errorf("call after a 504: %d, connections reused %v", resp.StatusCode, reused)
	}
}

// TestTimeoutRaceOverTCP serves 500 calls whose handler finishes at
// about its deadline: each reply is the handler's 200 or the 504,
// whole, never a mix of the two.
func TestTimeoutRaceOverTCP(t *testing.T) {
	const d = 2 * time.Millisecond
	const done = "done\n"
	ts := slowServer(t, d, func(w http.ResponseWriter, r *http.Request) {
		us, _ := strconv.Atoi(r.URL.Query().Get("us"))
		time.Sleep(time.Duration(us) * time.Microsecond)
		w.Header().Set("Content-Type", "text/plain")
		_, _ = io.WriteString(w, done)
	})
	hc := ts.Client()
	counts := map[int]int{}
	for i := 0; i < 500; i++ {
		us := int(d/time.Microsecond) + (i%11-5)*100
		resp, err := hc.Get(fmt.Sprintf("%s/v1/slow?us=%d", ts.URL, us))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		counts[resp.StatusCode]++
		switch resp.StatusCode {
		case http.StatusOK:
			if string(body) != done || resp.Header.Get("Content-Type") != "text/plain" {
				t.Fatalf("call %d: 200 with %q, %v", i, body, resp.Header)
			}
		case http.StatusGatewayTimeout:
			if e := envelope(t, body); e.Code != CodeTimeout || !resp.Close {
				t.Fatalf("call %d: 504 %+v, close %v", i, e, resp.Close)
			}
		default:
			t.Fatalf("call %d: status %d", i, resp.StatusCode)
		}
	}
	t.Logf("replies by status: %v", counts)
}
