package web

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// rewindBody is a request body AllocsPerRun can serve again.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// raceSlack is what a -race build may add to an allocation pin
// (race_test.go).
var raceSlack float64

// TestServeAllocs pins what the whole web.New stack costs a
// result-cache hit on the query route and an insert on the edit route,
// served into an httptest.ResponseRecorder: 15 and 35 allocations (15
// and 41 before the clone an edit runs on copied arrays indexed by
// symbol in place of two maps keyed by name, and bound its index
// without three closures; 18 and 44 before one pooled call carried the
// request's context, its request and its status writer; 40 and 69
// before the request path was pooled and decoded by hand). Of the hit's
// 15, a memory profile puts 7 in the recorder (itself, its header map
// and body, the clone of the header it keeps at WriteHeader), 5 in
// net/http (the mux's match, the header map's group and the three
// header values the reply sets) and 2 in the server: the decoded
// request and the catalog pin. The insert adds the edit itself (20, in
// dyndoc — 7 of them the clone — the journal and the slice ApplyBatch
// takes).
func TestServeAllocs(t *testing.T) {
	s, _ := newTestServer(t, 0)
	mustOpen(t, s, "alpha", "<root>"+strings.Repeat("<a></a>", 10)+"</root>")
	for _, tc := range []struct {
		name, route, body string
		pin               float64
	}{
		{"query hit", "query", `{"path":"//a"}`, 15},
		{"insert", "edit", `{"op":"insert-element","parent":0,"pos":0,"name":"x"}`, 35},
	} {
		body := &rewindBody{}
		r := httptest.NewRequest("POST", "/v1/docs/alpha/"+tc.route, nil)
		r.Header.Set("X-Request-ID", "0123456789abcdef")
		serve := func() {
			body.Reset(tc.body)
			r.Body, r.ContentLength = body, int64(len(tc.body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.name, w.Code, w.Body)
			}
		}
		serve()
		allocs := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.pin+raceSlack {
			t.Errorf("%s: %.0f allocations, pinned at %.0f", tc.name, allocs, tc.pin)
		}
	}
}
