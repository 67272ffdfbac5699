package web

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCallReuseStorm: 8 clients send a storm of requests that time out
// or just finish (their handlers wait about the 2 ms deadline, half of
// them on their context, the rest running on after a 504), that panic
// after a partial write, and that open a watch stream and hang up on
// it. Every handler notes the pooled call its request came on while it
// runs: no call may serve a second request before its first handler
// returns, and a handler's context keeps its own request's id to the
// end. Every reply echoes its request's id, and an error envelope
// carries it.
func TestCallReuseStorm(t *testing.T) {
	const d = 2 * time.Millisecond
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)
	var mu sync.Mutex
	busy := map[*call]string{} // call → the id its running handler serves
	statuses := map[int]int{}
	enter := func(r *http.Request) func() {
		c, id := r.Context().(*call), r.Header.Get("X-Request-Id")
		mu.Lock()
		if other, ok := busy[c]; ok {
			t.Errorf("call %p serves %s while its handler for %s still runs", c, id, other)
		}
		busy[c] = id
		mu.Unlock()
		return func() {
			if got := RequestID(r.Context()); got != id {
				t.Errorf("handler for %s ends with request id %s", id, got)
			}
			mu.Lock()
			delete(busy, c)
			mu.Unlock()
		}
	}
	mux := http.NewServeMux()
	route(mux, "GET /v1/slow", "stormslow", d, func(w http.ResponseWriter, r *http.Request) {
		defer enter(r)()
		var us int
		_, _ = fmt.Sscan(r.URL.Query().Get("us"), &us)
		if r.URL.Query().Has("heed") { // else it runs on after its 504
			select {
			case <-r.Context().Done():
			case <-time.After(time.Duration(us) * time.Microsecond):
			}
		} else {
			time.Sleep(time.Duration(us) * time.Microsecond)
		}
		_, _ = io.WriteString(w, "done\n")
	})
	route(mux, "GET /v1/boom", "stormboom", d, func(w http.ResponseWriter, r *http.Request) {
		defer enter(r)()
		_, _ = io.WriteString(w, "half")
		panic("boom")
	})
	route(mux, "GET /v1/docs/{name}/watch", "stormwatch", -1, func(w http.ResponseWriter, r *http.Request) {
		defer enter(r)()
		s.handleWatch(w, r)
	})
	s.handler = withRequestID(mux)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // the panics' stacks

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 45; i++ {
				id := fmt.Sprintf("storm-%d-%d", g, i)
				ctx, cancel := context.WithCancel(context.Background())
				path := fmt.Sprintf("/v1/slow?us=%d", (g*45+i)*37%4000)
				if g%2 == 1 {
					path += "&heed"
				}
				switch i % 3 {
				case 1:
					path = "/v1/boom"
				case 2:
					path = "/v1/docs/alpha/watch?path=//a"
				}
				req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
				req.Header.Set("X-Request-Id", id)
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Errorf("%s: %v", id, err)
					cancel()
					continue
				}
				var body string
				if i%3 == 2 { // hang up once the stream is live
					body, _ = bufio.NewReader(resp.Body).ReadString('\n')
					cancel()
				} else {
					b, _ := io.ReadAll(resp.Body)
					body = string(b)
				}
				resp.Body.Close()
				cancel()
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
				switch {
				case resp.Header.Get("X-Request-Id") != id:
					t.Errorf("%s: reply carries id %q", id, resp.Header.Get("X-Request-Id"))
				case resp.StatusCode == http.StatusOK && (i%3 == 0 && body != "done\n" || i%3 == 2 && body != ": watching //a\n"),
					resp.StatusCode == http.StatusOK && i%3 == 1:
					t.Errorf("%s: 200 %q", id, body)
				case resp.StatusCode != http.StatusOK && !strings.Contains(body, `"request_id":"`+id+`"`):
					t.Errorf("%s: %d %q", id, resp.StatusCode, body)
				}
			}
		}(g)
	}
	wg.Wait()
	t.Logf("replies by status: %v", statuses)
	if statuses[http.StatusOK] == 0 || statuses[http.StatusGatewayTimeout] == 0 || statuses[http.StatusInternalServerError] == 0 {
		t.Errorf("replies by status %v: the storm must see 200s, 504s and 500s", statuses)
	}
}
