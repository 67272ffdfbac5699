package client

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// countingConn counts the writes made on a connection.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerCall: a body-carrying call, a query (a POST) or an
// edit, goes out in one socket write, its headers and body in one
// buffer, over a kept-alive connection.
func TestOneWritePerCall(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		reply := `{"count":1,"ids":[1]}`
		if strings.HasSuffix(r.URL.Path, "/edit") {
			reply = `{"results":[{"ids":[1],"relabeled":0}],"applied":1}`
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		_, _ = io.WriteString(w, reply)
	}))
	defer ts.Close()
	var writes, dials atomic.Int64
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, &writes}, nil
	}}
	defer tr.CloseIdleConnections()
	c, err := Dial(ts.URL, WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		t.Fatal(err)
	}
	d := &Doc{c: c, name: "w"}
	const calls = 40
	for i := 0; i < calls; i++ {
		if i%2 == 0 {
			_, err = d.Query("//a")
		} else {
			_, err = d.InsertElement(1, 0, "a")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d socket writes for %d calls over %d connections", writes.Load(), calls, dials.Load())
	if got := writes.Load(); got != calls || dials.Load() != 1 {
		t.Errorf("%d socket writes for %d body-carrying calls over %d connections, want one a call over one", got, calls, dials.Load())
	}
}
