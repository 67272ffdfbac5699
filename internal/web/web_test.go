package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

const seed = "<root><a></a><b></b></root>"

func newTestServer(t *testing.T, timeout time.Duration) (*Server, *catalog.Catalog) {
	t.Helper()
	cat, err := catalog.Open(catalog.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cat.Close() })
	return New(Config{Catalog: cat, Timeout: timeout}), cat
}

// do runs one request through the full middleware stack.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// decodeErr parses the JSON error envelope.
func decodeErr(t *testing.T, w *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error response is not the JSON envelope: %v (body %q)", err, w.Body.String())
	}
	return e
}

func mustOpen(t *testing.T, s *Server, name, xml string) {
	t.Helper()
	w := do(s, "POST", "/v1/docs/"+name+"/open", fmt.Sprintf(`{"xml":%q}`, xml))
	if w.Code != http.StatusOK {
		t.Fatalf("open %s: %d %s", name, w.Code, w.Body.String())
	}
}

// TestErrorPaths is the satellite table: every client-visible error
// path of the API surface, each asserting status and the JSON
// envelope with a request id.
func TestErrorPaths(t *testing.T) {
	s, cat := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)

	// A closed-but-still-resident handle: close it out from under the
	// catalog so the next pinned call sees ErrClosed.
	mustOpen(t, s, "corpse", seed)
	p, err := cat.Acquire("corpse")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Handle().Close(); err != nil {
		t.Fatal(err)
	}
	p.Release()

	tests := []struct {
		name    string
		method  string
		path    string
		body    string
		status  int
		contain string
	}{
		{"unknown doc stats", "GET", "/v1/docs/nope", "", http.StatusNotFound, "not found"},
		{"unknown doc query", "POST", "/v1/docs/nope/query", `{"path":"/root"}`, http.StatusNotFound, "not found"},
		{"unknown doc open without xml", "POST", "/v1/docs/nope/open", `{}`, http.StatusNotFound, "not found"},
		{"bad document name", "POST", "/v1/docs/a,b/query", `{"path":"/root"}`, http.StatusBadRequest, "invalid document name"},
		{"bad JSON body", "POST", "/v1/docs/alpha/query", `{"path":`, http.StatusBadRequest, "invalid JSON"},
		{"unknown JSON field", "POST", "/v1/docs/alpha/query", `{"paht":"/root"}`, http.StatusBadRequest, "invalid JSON"},
		{"trailing JSON garbage", "POST", "/v1/docs/alpha/query", `{"path":"/root"} {}`, http.StatusBadRequest, "trailing"},
		{"bad scheme on create", "POST", "/v1/docs/fresh/open", `{"xml":"<r></r>","scheme":"no-such-scheme"}`, http.StatusBadRequest, "valid schemes:"},
		{"create over existing doc", "POST", "/v1/docs/alpha/open", fmt.Sprintf(`{"xml":%q}`, seed), http.StatusConflict, "already exists"},
		{"bad query path", "POST", "/v1/docs/alpha/query", `{"path":"///"}`, http.StatusBadRequest, ""},
		{"unknown edit op", "POST", "/v1/docs/alpha/edit", `{"op":"rename"}`, http.StatusBadRequest, "unknown op"},
		{"insert-element without name", "POST", "/v1/docs/alpha/edit", `{"op":"insert-element","parent":0}`, http.StatusBadRequest, "requires name"},
		{"bad insert-tree fragment", "POST", "/v1/docs/alpha/edit", `{"op":"insert-tree","parent":0,"fragment":"<oops"}`, http.StatusBadRequest, "fragment"},
		{"edit on bad parent id", "POST", "/v1/docs/alpha/edit", `{"op":"insert-element","parent":999999,"name":"x"}`, http.StatusBadRequest, ""},
		{"empty batch", "POST", "/v1/docs/alpha/batch", `{"edits":[]}`, http.StatusBadRequest, "at least one"},
		{"bad edit inside batch", "POST", "/v1/docs/alpha/batch", `{"edits":[{"op":"rename"}]}`, http.StatusBadRequest, "edit 0"},
		{"closed handle", "POST", "/v1/docs/corpse/query", `{"path":"/root"}`, http.StatusServiceUnavailable, "closed"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := do(s, tc.method, tc.path, tc.body)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.status, w.Body.String())
			}
			e := decodeErr(t, w)
			if e.RequestID == "" {
				t.Error("error envelope has no request id")
			}
			if e.RequestID != w.Header().Get("X-Request-ID") {
				t.Errorf("envelope id %q != header id %q", e.RequestID, w.Header().Get("X-Request-ID"))
			}
			if tc.contain != "" && !strings.Contains(e.Error, tc.contain) {
				t.Errorf("error %q does not mention %q", e.Error, tc.contain)
			}
		})
	}
}

// TestStatsResidentBytes: a document's stats carry the estimate the
// catalog budgets it by.
func TestStatsResidentBytes(t *testing.T) {
	s, cat := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)
	w := do(s, "GET", "/v1/docs/alpha", "")
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %v (body %s)", err, w.Body.String())
	}
	p, err := cat.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if want := p.Handle().MemoryFootprint(); st.ResidentBytes <= 0 || st.ResidentBytes != want {
		t.Fatalf("resident_bytes %d, want the handle's estimate %d (> 0)", st.ResidentBytes, want)
	}
}

// TestRoundTrip drives the full happy-path surface: open, edit,
// batch, query, explain, stats, xml, sync, checkpoint, list, close,
// reopen — asserting no acknowledged edit is lost across the
// close/replay boundary.
func TestRoundTrip(t *testing.T) {
	s, cat := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)

	// Find the root id.
	w := do(s, "POST", "/v1/docs/alpha/query", `{"path":"/root"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	var q queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 1 {
		t.Fatalf("root query count = %d, want 1", q.Count)
	}
	root := q.IDs[0]

	// One single edit, then a batch of three.
	w = do(s, "POST", "/v1/docs/alpha/edit",
		fmt.Sprintf(`{"op":"insert-element","parent":%d,"pos":0,"name":"x"}`, root))
	if w.Code != http.StatusOK {
		t.Fatalf("edit: %d %s", w.Code, w.Body.String())
	}
	batch := fmt.Sprintf(`{"edits":[
		{"op":"insert-element","parent":%d,"pos":0,"name":"x"},
		{"op":"insert-tree","parent":%d,"pos":0,"fragment":"<x><y></y></x>"},
		{"op":"insert-element","parent":%d,"pos":0,"name":"x"}]}`, root, root, root)
	w = do(s, "POST", "/v1/docs/alpha/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	var br editResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.Applied != 3 {
		t.Fatalf("batch applied = %d, want 3", br.Applied)
	}

	w = do(s, "POST", "/v1/docs/alpha/query", `{"path":"/root/x"}`)
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 4 {
		t.Fatalf("after edits /root/x count = %d, want 4", q.Count)
	}

	w = do(s, "POST", "/v1/docs/alpha/explain", `{"path":"/root/x"}`)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "strategy") {
		t.Fatalf("explain: %d %s", w.Code, w.Body.String())
	}

	w = do(s, "GET", "/v1/docs/alpha", "")
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Journal == nil || st.Journal.Appended == 0 {
		t.Fatalf("stats journal = %+v, want appended > 0", st.Journal)
	}

	w = do(s, "GET", "/v1/docs/alpha/xml", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "<y>") {
		t.Fatalf("xml: %d %s", w.Code, w.Body.String())
	}

	for _, route := range []string{"sync", "checkpoint"} {
		if w = do(s, "POST", "/v1/docs/alpha/"+route, ""); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", route, w.Code, w.Body.String())
		}
	}

	w = do(s, "GET", "/v1/docs", "")
	var list listResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Documents) != 1 || list.Documents[0].Name != "alpha" || !list.Documents[0].Resident {
		t.Fatalf("list = %+v, want one resident alpha", list)
	}

	// Close evicts; reopening (no xml) replays every acknowledged edit.
	if w = do(s, "POST", "/v1/docs/alpha/close", ""); w.Code != http.StatusOK {
		t.Fatalf("close: %d %s", w.Code, w.Body.String())
	}
	if cat.Resident("alpha") {
		t.Fatal("alpha resident after close")
	}
	if w = do(s, "POST", "/v1/docs/alpha/open", ""); w.Code != http.StatusOK {
		t.Fatalf("reopen: %d %s", w.Code, w.Body.String())
	}
	w = do(s, "POST", "/v1/docs/alpha/query", `{"path":"/root/x"}`)
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Count != 4 {
		t.Fatalf("after close/reopen /root/x count = %d, want 4 — an acknowledged edit was lost", q.Count)
	}
}

// TestTimeoutMiddleware drives a deliberately slow handler through
// the stack and asserts the client sees a JSON 504 carrying the
// request id while the handler's late write is discarded.
func TestTimeoutMiddleware(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("too late"))
	})
	h := withRequestID(withMetrics(newRouteMetrics("slowtest"), withTimeout(20*time.Millisecond, withRecover(slow))))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/slow", nil))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	var e errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("504 body is not the JSON envelope: %q", w.Body.String())
	}
	if e.RequestID == "" || !strings.Contains(e.Error, "timed out") {
		t.Fatalf("504 envelope = %+v", e)
	}
	if strings.Contains(w.Body.String(), "too late") {
		t.Fatal("timed-out handler's late write leaked to the client")
	}
}

// TestPanicRecovery asserts a panicking handler yields a JSON 500
// with the request id and does not take the server down.
func TestPanicRecovery(t *testing.T) {
	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") })
	h := withRequestID(withMetrics(newRouteMetrics("panictest"), withTimeout(time.Second, withRecover(boom))))
	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/boom", nil)
	r.Header.Set("X-Request-ID", "caller-chosen-id")
	h.ServeHTTP(w, r)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	var e errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("500 body is not the JSON envelope: %q", w.Body.String())
	}
	if e.RequestID != "caller-chosen-id" {
		t.Fatalf("request id = %q, want the caller-chosen one", e.RequestID)
	}
	if e.Error == "boom" {
		t.Fatal("panic value leaked verbatim to the client")
	}
}

// TestIntrospection covers /healthz and /debug/vars, asserting the
// metrics JSON carries both the web_ and catalog_ families.
func TestIntrospection(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)

	w := do(s, "GET", "/healthz", "")
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", w.Code, w.Body.String())
	}

	w = do(s, "GET", "/debug/vars", "")
	if w.Code != http.StatusOK {
		t.Fatalf("debug/vars: %d", w.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, key := range []string{
		"web_requests_total", "web_inflight_requests", "web_panics_total", "web_timeouts_total",
		"web_route_open_responses_2xx_total", "web_route_query_latency_seconds",
		"catalog_opens_total", "catalog_open_docs", "catalog_resident_bytes", "catalog_evictions_total",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %s", key)
		}
	}
}

// TestRecordTooLarge: an edit under the body limit whose journal record
// would exceed 16 MiB gets the answer an over-limit body gets, 400
// bad_request, publishes nothing, and leaves the document taking edits.
func TestRecordTooLarge(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)
	w := do(s, "POST", "/v1/docs/alpha/edit",
		`{"op":"insert-tree","parent":0,"pos":0,"fragment":"<big>`+strings.Repeat("x", 17<<20)+`</big>"}`)
	if e := decodeErr(t, w); w.Code != http.StatusBadRequest || e.Code != CodeBadRequest || !strings.Contains(e.Error, "16 MiB") {
		t.Fatalf("17 MiB edit: %d %+v", w.Code, e)
	}
	if w = do(s, "POST", "/v1/docs/alpha/edit", `{"op":"insert-element","parent":0,"pos":0,"name":"small"}`); w.Code != http.StatusOK {
		t.Fatalf("edit after the refusal: %d %s", w.Code, w.Body.String())
	}
	if xml := do(s, "GET", "/v1/docs/alpha/xml", "").Body.String(); strings.Contains(xml, "<big>") || !strings.Contains(xml, "<small>") {
		t.Fatalf("document after the refusal: %.200s", xml)
	}
}

// TestBadNodeNameRefused: an element name a checkpoint cannot bring
// back used to be acknowledged. After a checkpoint the document then
// failed to reopen ("a b", "x><y", "1abc": "rebuilding checkpoint
// document: XML syntax error") or reopened with the name changed ("p:q"
// as "q", so a follower bootstrapped from that snapshot diverged from
// its leader). Each is refused with 400, as an edit and inside a batch;
// nothing is published or journaled; and a checkpoint, a close and an
// open bring back the document with a valid name inserted after the
// refusals.
func TestBadNodeNameRefused(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)
	seq := func() uint64 {
		t.Helper()
		var st statsResponse
		if err := json.Unmarshal(do(s, "GET", "/v1/docs/alpha", "").Body.Bytes(), &st); err != nil || st.Journal == nil {
			t.Fatalf("stats: %v, %+v", err, st)
		}
		return st.Journal.Seq
	}
	xml, seq0 := do(s, "GET", "/v1/docs/alpha/xml", "").Body.String(), seq()
	for _, name := range []string{"a b", "x><y", "1abc", "p:q"} {
		insert := fmt.Sprintf(`{"op":"insert-element","parent":0,"pos":0,"name":%q}`, name)
		for route, body := range map[string]string{
			"edit":  insert,
			"batch": `{"edits":[{"op":"insert-element","parent":0,"pos":0,"name":"ok"},` + insert + `]}`,
		} {
			w := do(s, "POST", "/v1/docs/alpha/"+route, body)
			if e := decodeErr(t, w); w.Code != http.StatusBadRequest || !strings.Contains(e.Error, "not an XML name") {
				t.Errorf("%s naming %q: %d %+v", route, name, w.Code, e)
			}
		}
	}
	if got := do(s, "GET", "/v1/docs/alpha/xml", "").Body.String(); got != xml || seq() != seq0 {
		t.Fatalf("after the refusals: XML %s, journal seq %d; want %s, %d", got, seq(), xml, seq0)
	}
	if w := do(s, "POST", "/v1/docs/alpha/edit", `{"op":"insert-element","parent":0,"pos":0,"name":"_n-1.x"}`); w.Code != http.StatusOK {
		t.Fatalf("valid name: %d %s", w.Code, w.Body.String())
	}
	xml = do(s, "GET", "/v1/docs/alpha/xml", "").Body.String()
	for _, route := range []string{"checkpoint", "close", "open"} {
		if w := do(s, "POST", "/v1/docs/alpha/"+route, ""); w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", route, w.Code, w.Body.String())
		}
	}
	if got := do(s, "GET", "/v1/docs/alpha/xml", "").Body.String(); got != xml || !strings.Contains(got, "<_n-1.x>") {
		t.Fatalf("reopened from the checkpoint: %s, want %s", got, xml)
	}
}

// TestPanicAfterPartialWrite: a handler that has begun its reply when
// it panics gets a 500 whose body is the error envelope alone, not its
// half-written reply with the envelope after it under a 200.
func TestPanicAfterPartialWrite(t *testing.T) {
	half := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write([]byte(`{"count":3,"ids":[1,`))
		panic("boom")
	})
	h := withRequestID(withMetrics(newRouteMetrics("halftest"), withTimeout(time.Second, withRecover(half))))
	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/half", nil)
	r.Header.Set("X-Request-ID", "caller-chosen-id")
	h.ServeHTTP(w, r)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", w.Code, w.Body.String())
	}
	e := envelope(t, w.Body.Bytes())
	if e.Code != CodeInternal || e.RequestID != "caller-chosen-id" || w.Header().Get("X-Request-ID") != "caller-chosen-id" {
		t.Fatalf("envelope %+v, header id %q", e, w.Header().Get("X-Request-ID"))
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}
