package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// queryResponse is the query route's reply as a struct: what the route
// encoded with json.Encoder before it rendered the bytes itself, kept
// as the oracle renderQueryReply is pinned to.
type queryResponse struct {
	Count int   `json:"count"`
	IDs   []int `json:"ids"`
}

// encoded is the reply json.Encoder writes for ids, a nil result sent
// as [] — byte for byte what the route sent before it rendered.
func encoded(t *testing.T, ids []int) []byte {
	t.Helper()
	if ids == nil {
		ids = []int{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(queryResponse{Count: len(ids), IDs: ids}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRenderQueryReplyGolden pins the rendered reply to json.Encoder's
// bytes, and what it holds to those bytes.
func TestRenderQueryReplyGolden(t *testing.T) {
	big := make([]int, 10000)
	for i := range big {
		big[i] = i * 37 % 100003
	}
	for name, ids := range map[string][]int{"nil": nil, "empty": {}, "one": {42}, "zero": {0}, "10000": big} {
		got, want := renderQueryReply(ids), encoded(t, ids)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rendered %.80q, json.Encoder writes %.80q", name, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: rendering holds %d bytes for a reply of %d", name, cap(got), len(got))
		}
	}
}

// playsXML is the first n plays of the Shakespeare dataset under one
// root, the document of the benchmark's serve-read workload.
func playsXML(n int) string {
	root := xmltree.NewElement("plays")
	for _, f := range datagen.D5(1).Files[:n] {
		root.AppendChild(f.Root)
	}
	return (&xmltree.Document{Root: root}).String()
}

// benchmarkQueries are the query texts of benchmark/inputs.go, by
// document.
var benchmarkQueries = map[string][]string{
	"plays": {
		"/plays/play/act[4]", "/plays/play/title", "//personae/pgroup/persona",
		"/plays/play/personae/persona[12]/preceding-sibling::*",
		"//act/scene/speech", "//act[2]/following::speaker",
		"//act", "//pgroup", "//persona", "//scene", "//stagedir",
	},
	"order": {"/order/item[4]", "/order/item/sku", "//item/note", "/order/item[12]/preceding-sibling::*"},
	"hamlet": {
		"/play/act[4]", "/play/*//line", "/play/act[5]/following::speaker",
		"//scene/speech[6]/preceding-sibling::*", "//act/scene/speech", "//nosuchname",
	},
}

// TestQueryReplyBytes sends every benchmark query through the route,
// as a miss and as a result-cache hit, and wants the bytes json.Encoder
// writes for the ids the handle returns.
func TestQueryReplyBytes(t *testing.T) {
	s, cat := newTestServer(t, 0)
	order := "<order>" + strings.Repeat("<item><sku></sku><qty></qty><price></price><note></note></item>", 100) + "</order>"
	docs := map[string]string{"plays": playsXML(1), "order": order, "hamlet": datagen.Hamlet().String()}
	for name, xml := range docs {
		mustOpen(t, s, name, xml)
		pin, err := cat.Acquire(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range benchmarkQueries[name] {
			ids, err := pin.Handle().QueryString(q)
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			want := encoded(t, ids)
			for _, pass := range []string{"miss", "hit"} {
				w := do(s, "POST", "/v1/docs/"+name+"/query", fmt.Sprintf(`{"path":%q}`, q))
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("%s %s (%s): %d %.60q, want %.60q", name, q, pass, w.Code, w.Body.Bytes(), want)
				}
				if ct := w.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s %s (%s): Content-Type %q", name, q, pass, ct)
				}
			}
		}
		pin.Release()
	}
}

// TestBufferedRepliesCarryContentLength talks to the server over TCP:
// every buffered route states the length of its reply — the 2 KB at
// which net/http starts chunking an unsized reply included — and none
// leaves chunked.
func TestBufferedRepliesCarryContentLength(t *testing.T) {
	s, _ := newTestServer(t, 0)
	ts := httptest.NewServer(s)
	defer ts.Close()
	long := `{"path":"/root//` + strings.Repeat("x", 4000) + `|"}` // a 4 KB error envelope
	calls := []struct{ method, path, body string }{
		{"POST", "/v1/docs/alpha/open", fmt.Sprintf(`{"xml":%q}`, playsXML(1))},
		{"GET", "/v1/docs", ""},
		{"GET", "/v1/docs/alpha", ""},
		{"GET", "/v1/docs/alpha/xml", ""},
		{"POST", "/v1/docs/alpha/query", `{"path":"//speech"}`},
		{"POST", "/v1/docs/alpha/query", `{"path":"//speech"}`},
		{"POST", "/v1/docs/alpha/query", `{"path":"//nosuchname"}`},
		{"POST", "/v1/docs/alpha/query", long},
		{"POST", "/v1/docs/alpha/explain", `{"path":"//act/scene/speech"}`},
		{"POST", "/v1/docs/alpha/edit", `{"op":"insert-element","parent":0,"pos":0,"name":"x"}`},
		{"POST", "/v1/docs/alpha/batch", `{"edits":[{"op":"insert-element","parent":0,"pos":0,"name":"x"}]}`},
		{"POST", "/v1/docs/alpha/sync", ""},
		{"POST", "/v1/docs/alpha/checkpoint", ""},
		{"POST", "/v1/docs/alpha/close", ""},
		{"GET", "/v1/docs/nope", ""},
	}
	for _, c := range calls {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s %s: %d, Content-Length %d, Transfer-Encoding %v, body of %d bytes",
				c.method, c.path, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// discardRecorder is a ResponseWriter that keeps the header and the
// status and counts the body, so that a measurement through it sees
// the server's allocation and no copy of the reply.
type discardRecorder struct {
	header http.Header
	status int
	n      int
}

func (d *discardRecorder) Header() http.Header  { return d.header }
func (d *discardRecorder) WriteHeader(code int) { d.status = code }
func (d *discardRecorder) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestQueryHitAllocBytes pins that a result-cache hit on the query
// route allocates nothing per id: the bytes a request costs through
// Server.ServeHTTP are the same for a 10-id and a 10 000-id reply (a
// copy of the larger reply alone would be ~58 KB).
func TestQueryHitAllocBytes(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", "<root>"+strings.Repeat("<a></a>", 10)+strings.Repeat("<b></b>", 10000)+"</root>")
	perRequest := func(query string, wantIDs int) float64 {
		body := fmt.Sprintf(`{"path":%q}`, query)
		serve := func() *discardRecorder {
			w := &discardRecorder{header: make(http.Header)}
			s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/docs/alpha/query", strings.NewReader(body)))
			return w
		}
		if w := serve(); w.status != http.StatusOK || w.n < 2*wantIDs {
			t.Fatalf("%s: status %d, %d bytes", query, w.status, w.n)
		}
		const runs = 200
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	small, large := perRequest("//a", 10), perRequest("//b", 10000)
	t.Logf("result hit: %.0f B per request for 10 ids, %.0f B for 10 000", small, large)
	if large > small+512 {
		t.Errorf("a 10 000-id hit allocates %.0f B, a 10-id hit %.0f B: something is allocated per id", large, small)
	}
}
