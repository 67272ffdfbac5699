package web

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
)

// TestUnversionedRoutesNotFound: /v1 is the only API surface; the
// pre-/v1 paths are no routes at all.
func TestUnversionedRoutesNotFound(t *testing.T) {
	s, _ := newTestServer(t, 0)
	for _, tc := range []struct{ method, path string }{
		{"GET", "/docs"},
		{"GET", "/docs/alpha"},
		{"POST", "/docs/alpha/query"},
	} {
		if w := do(s, tc.method, tc.path, ""); w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, w.Code)
		}
	}
}

// TestErrorCodes asserts the machine-readable code field on the main
// error classes.
func TestErrorCodes(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)

	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/v1/docs/ghost/open", "", http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/docs/alpha/open", `{"xml":"<x/>"}`, http.StatusConflict, CodeExists},
		{"POST", "/v1/docs/.bad/open", "", http.StatusBadRequest, CodeBadName},
		{"POST", "/v1/docs/nope/open", `{"xml":"<x/>","scheme":"No-Such"}`, http.StatusBadRequest, CodeUnknownScheme},
		{"POST", "/v1/docs/alpha/query", `{"path":"///"}`, http.StatusBadRequest, CodeBadRequest},
		{"GET", "/v1/docs/alpha/journal?limit=0", "", http.StatusBadRequest, CodeBadRequest},
		{"GET", "/v1/docs/alpha/journal?limit=-1", "", http.StatusBadRequest, CodeBadRequest},
		{"GET", "/v1/docs/alpha/watch", "", http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		w := do(s, tc.method, tc.path, tc.body)
		if w.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, w.Code, tc.status, w.Body.String())
			continue
		}
		if e := decodeErr(t, w); e.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, e.Code, tc.code)
		}
	}
}

// TestJournalAndHorizon exercises the binary journal endpoint and the
// horizon long-poll against a live document.
func TestJournalAndHorizon(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)

	// Find the root id, apply one edit, note its seq.
	w := do(s, "POST", "/v1/docs/alpha/query", `{"path":"/root"}`)
	var q struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil || len(q.IDs) != 1 {
		t.Fatalf("query: %v %s", err, w.Body.String())
	}
	w = do(s, "POST", "/v1/docs/alpha/edit",
		`{"op":"insert-element","parent":`+itoa(q.IDs[0])+`,"pos":0,"name":"c"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("edit: %d %s", w.Code, w.Body.String())
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &ack); err != nil || ack.Seq == 0 {
		t.Fatalf("edit ack carries no seq: %v %s", err, w.Body.String())
	}

	// From-scratch chunk decodes and covers the edit.
	w = do(s, "GET", "/v1/docs/alpha/journal", "")
	if w.Code != http.StatusOK {
		t.Fatalf("journal: %d %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("journal content type %q", ct)
	}
	chunk, err := journal.DecodeShipStream(bytes.NewReader(w.Body.Bytes()), journal.FromScratch)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Snapshot == nil || chunk.Horizon != ack.Seq {
		t.Fatalf("chunk: snapshot %v horizon %d, want %d", chunk.Snapshot != nil, chunk.Horizon, ack.Seq)
	}

	// A limit past the chunk cap is the journal's to clamp, not an error.
	w = do(s, "GET", "/v1/docs/alpha/journal?from=0&limit=1048576", "")
	if w.Code != http.StatusOK {
		t.Fatalf("journal with a large limit: %d %s", w.Code, w.Body.String())
	}
	if chunk, err = journal.DecodeShipStream(bytes.NewReader(w.Body.Bytes()), 0); err != nil || len(chunk.Batches) != int(ack.Seq) {
		t.Fatalf("large-limit chunk: %+v, %v", chunk, err)
	}

	// Positioned fetch from the edit's seq: nothing further.
	w = do(s, "GET", "/v1/docs/alpha/journal?from="+itoa(int(ack.Seq)), "")
	chunk, err = journal.DecodeShipStream(bytes.NewReader(w.Body.Bytes()), ack.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Snapshot != nil || len(chunk.Batches) != 0 {
		t.Fatalf("caught-up chunk not empty: %+v", chunk)
	}

	// Horizon: reached instantly at the ack'd seq; unreached above it.
	w = do(s, "GET", "/v1/docs/alpha/horizon?min="+itoa(int(ack.Seq)), "")
	var hz struct {
		Horizon uint64 `json:"horizon"`
		Reached bool   `json:"reached"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil || !hz.Reached || hz.Horizon < ack.Seq {
		t.Fatalf("horizon: %v %s", err, w.Body.String())
	}
	w = do(s, "GET", "/v1/docs/alpha/horizon?min="+itoa(int(ack.Seq+5))+"&waitms=10", "")
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil || hz.Reached {
		t.Fatalf("horizon past end claims reached: %v %s", err, w.Body.String())
	}
}

func itoa(n int) string {
	buf, _ := json.Marshal(n)
	return string(buf)
}

// openWatch starts a watch stream on url and returns its body once the
// server has registered the watcher (the stream's first comment line).
func openWatch(t *testing.T, url string) io.ReadCloser {
	t.Helper()
	resp, err := http.Get(url + "/v1/docs/alpha/watch?path=/root/w")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: status %d", resp.StatusCode)
	}
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": watching") {
		t.Fatalf("watch stream opened with %q, %v", line, err)
	}
	return resp.Body
}

// streamEnds reports whether body reaches its end within 5 s.
func streamEnds(body io.ReadCloser) bool {
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, body)
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		_ = body.Close()
		return false
	}
}

// TestWatchStreamEndsOnClose: the close route closes the document's
// handle, and with it every watch stream on the document.
func TestWatchStreamEndsOnClose(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := openWatch(t, ts.URL)
	if w := do(s, "POST", "/v1/docs/alpha/close", ""); w.Code != http.StatusOK {
		t.Fatalf("close: %d %s", w.Code, w.Body.String())
	}
	if !streamEnds(body) {
		t.Fatal("watch stream still open 5 s after the close route")
	}
}

// TestShutdownEndsWatchStreams: http.Server.Shutdown cancels no
// handler, so a watch stream held it for its whole deadline until
// EndStreams was registered with it.
func TestShutdownEndsWatchStreams(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", seed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s}
	srv.RegisterOnShutdown(s.EndStreams)
	go func() { _ = srv.Serve(ln) }()
	body := openWatch(t, "http://"+ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with a watch stream open: %v", err)
	}
	if !streamEnds(body) {
		t.Fatal("watch stream still open after Shutdown")
	}
}
