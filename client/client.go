// Package client is the typed Go client for a dynxmld server's /v1
// API: Dial a base URL, open or create named documents, and drive them
// through a Doc whose methods mirror dynxml.Handle — Query, Edit,
// Batch, Explain, Sync, Checkpoint, Watch, FollowHorizon — over HTTP.
//
// Every logical call carries one X-Request-ID, reused verbatim across
// retries so the server's logs show a retried call as one request
// story. Responses with status 503 (handle evicted mid-call, catalog
// draining) are retried with backoff: the server only answers 503
// before an edit applies, so the retry cannot double-apply. Non-2xx
// responses decode into *APIError carrying the server's stable error
// code, message and request id.
// Replies of the buffered /v1 routes state their Content-Length and
// are read into one buffer of that size; a chunked reply (a proxy, an
// older server) is read as it comes.
package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Default dial parameters.
const (
	DefaultTimeout = 30 * time.Second
	defaultRetries = 3
	retryBackoff   = 50 * time.Millisecond
)

// maxErrorBody bounds how much of an error response is read.
const maxErrorBody = 1 << 16

// Stable server error codes, mirrored from the /v1 error envelope.
const (
	CodeNotFound      = "not_found"
	CodeExists        = "exists"
	CodeBadName       = "bad_name"
	CodeUnknownScheme = "unknown_scheme"
	CodeUnavailable   = "unavailable"
	CodeReadOnly      = "read_only"
	CodeLabelTooLong  = "label_too_long"
	CodeBadRequest    = "bad_request"
	CodeTimeout       = "timeout"
	CodeInternal      = "internal"
)

// APIError is a non-2xx /v1 response: the HTTP status, the server's
// stable error code and message, and the request id to quote when
// reporting it.
type APIError struct {
	Status    int
	Code      string
	Message   string
	RequestID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dynxml server: %s (%s, http %d, request %s)", e.Message, e.Code, e.Status, e.RequestID)
}

// ErrNotFound matches, via errors.Is, every APIError whose code is
// not_found.
var ErrNotFound = errors.New("client: document not found")

// ErrReadOnly matches, via errors.Is, every APIError whose code is
// read_only — the server is a follower; writes go to the leader.
var ErrReadOnly = errors.New("client: server is a read-only follower")

// Is maps stable codes onto the package's sentinel errors.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrNotFound:
		return e.Code == CodeNotFound
	case ErrReadOnly:
		return e.Code == CodeReadOnly
	}
	return false
}

// Option configures Dial.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (custom
// transport, TLS, instrumentation).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many attempts a retryable call gets (default 3;
// 1 disables retrying).
func WithRetries(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.retries = n
		}
	}
}

// Client talks to one dynxmld server. It is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
}

// Dial validates the base URL (e.g. "http://host:8080") and returns a
// client for the server behind it. It performs no network traffic —
// the first call does.
func Dial(base string, opts ...Option) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: bad base URL %q", base)
	}
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: DefaultTimeout},
		retries: defaultRetries,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// newRequestID mints the id one logical call keeps across retries.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-client"
	}
	return hex.EncodeToString(b[:])
}

// do runs one logical call: up to c.retries attempts under one request
// id, retrying 503s and (for body-less requests) transport errors.
// The caller owns the returned response body.
func (c *Client) do(method, path string, body []byte) (*http.Response, error) {
	rid := newRequestID()
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff << (attempt - 1))
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Request-ID", rid)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			// A failed send with no response may still have applied on
			// the server; only body-less (read) calls retry it blindly.
			if body != nil {
				return nil, err
			}
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			lastErr = readAPIError(resp)
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// readAPIError drains a non-2xx response into an APIError. It always
// closes the body.
func readAPIError(resp *http.Response) error {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var envelope struct {
		Error     string `json:"error"`
		Code      string `json:"code"`
		RequestID string `json:"request_id"`
	}
	e := &APIError{Status: resp.StatusCode, Code: CodeInternal}
	if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
		e.Code, e.Message, e.RequestID = envelope.Code, envelope.Error, envelope.RequestID
	} else {
		e.Message = strings.TrimSpace(string(raw))
	}
	return e
}

// readBody reads a reply whole: as the bytes arrive if it states no
// length, else into a buffer never more than 1 MB (or append's rounding
// of it) ahead of them — a stated length is not memory to commit — which
// for a reply under 1 MB is one buffer of exactly its length.
func readBody(resp *http.Response) ([]byte, error) {
	const ahead = 1 << 20
	n := resp.ContentLength
	if n < 0 {
		return io.ReadAll(resp.Body)
	}
	buf := make([]byte, 0, min(n, ahead))
	for {
		m, err := io.ReadFull(resp.Body, buf[len(buf):min(int64(cap(buf)), n)])
		if buf = buf[:len(buf)+m]; err != nil || int64(len(buf)) == n {
			return buf, err
		}
		buf = append(buf, make([]byte, min(n-int64(len(buf)), ahead))...)[:len(buf)]
	}
}

// roundTrip runs a logical request and returns its 2xx reply's body.
func (c *Client) roundTrip(method, path string, body any) ([]byte, error) {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	resp, err := c.do(method, path, raw)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, readAPIError(resp)
	}
	defer resp.Body.Close()
	return readBody(resp)
}

// call runs a logical request and decodes a 2xx JSON body into out
// (skipped when out is nil).
func (c *Client) call(method, path string, body, out any) error {
	raw, err := c.roundTrip(method, path, body)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// docPath builds a /v1 document route.
func (c *Client) docPath(name, verb string) string {
	p := "/v1/docs/" + url.PathEscape(name)
	if verb != "" {
		p += "/" + verb
	}
	return p
}

// ---------------------------------------------------------------------------
// Documents

// DocInfo is the open/create acknowledgment.
type DocInfo struct {
	Name     string `json:"name"`
	Scheme   string `json:"scheme"`
	Nodes    int    `json:"nodes"`
	Created  bool   `json:"created,omitempty"`
	Resident bool   `json:"resident"`
}

// Doc is one named document on the server, mirroring dynxml.Handle.
type Doc struct {
	c    *Client
	name string
	info DocInfo
}

// Create builds a brand-new named document from XML text under the
// given scheme ("" for the server default). A name that already exists
// fails with code exists.
func (c *Client) Create(name, xml, scheme string) (*Doc, error) {
	var info DocInfo
	body := map[string]string{"xml": xml}
	if scheme != "" {
		body["scheme"] = scheme
	}
	if err := c.call("POST", c.docPath(name, "open"), body, &info); err != nil {
		return nil, err
	}
	return &Doc{c: c, name: name, info: info}, nil
}

// Open opens an existing named document, replaying its journal on the
// server if it is not resident.
func (c *Client) Open(name string) (*Doc, error) {
	var info DocInfo
	if err := c.call("POST", c.docPath(name, "open"), struct{}{}, &info); err != nil {
		return nil, err
	}
	return &Doc{c: c, name: name, info: info}, nil
}

// ListEntry is one document in a List reply.
type ListEntry struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
}

// List names every document the server holds and its residency.
func (c *Client) List() ([]ListEntry, error) {
	var resp struct {
		Documents []ListEntry `json:"documents"`
	}
	if err := c.call("GET", "/v1/docs", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Documents, nil
}

// Name returns the document's name.
func (d *Doc) Name() string { return d.name }

// Scheme returns the labeling scheme reported at open time.
func (d *Doc) Scheme() string { return d.info.Scheme }

// ---------------------------------------------------------------------------
// Queries

// Query evaluates a path expression and returns the matching node ids.
// A reply in the form the server renders costs its body and one []int
// of exactly count ids; any other JSON spelling of it goes to
// encoding/json.
func (d *Doc) Query(path string) ([]int, error) {
	raw, err := d.c.roundTrip("POST", d.c.docPath(d.name, "query"), map[string]string{"path": path})
	if err != nil {
		return nil, err
	}
	if ids, ok := decodeQueryReply(raw); ok {
		return ids, nil
	}
	var resp struct {
		Count int   `json:"count"`
		IDs   []int `json:"ids"`
	}
	err = json.Unmarshal(raw, &resp)
	return resp.IDs, err
}

// maxDigits is how many decimal digits always fit an int.
const maxDigits = 9 + 9*(strconv.IntSize/64)

// decodeQueryReply decodes a reply of exactly the form the server
// renders: {"count":N,"ids":[a,b,...]} and at most one newline, no
// other whitespace, numbers of at most maxDigits digits with no sign or
// leading zero, N the number of ids — allocated once, at N. Anything
// else is not ok and goes to encoding/json, which decides what it
// means and agrees on whatever is accepted here (FuzzQueryReplyDecode).
func decodeQueryReply(b []byte) (ids []int, ok bool) {
	n, b, ok := number(b, `{"count":`)
	// An id takes a digit and a separator: a count of more than half the
	// body is wrong, and gets no memory on its word.
	if !ok || n > len(b)/2 {
		return nil, false
	}
	ids, sep := make([]int, n), `,"ids":[`
	for i := range ids {
		if ids[i], b, ok = number(b, sep); !ok {
			return nil, false
		}
		sep = ","
	}
	if n == 0 {
		b, ok = bytes.CutPrefix(b, []byte(sep))
	}
	return ids, ok && (string(b) == "]}" || string(b) == "]}\n")
}

// number parses the decimal digits after the prefix b must start with
// and returns what follows them. No digits, more than maxDigits and a
// zero before another digit are not ok: encoding/json refuses them or
// an int may not hold them.
func number(b []byte, after string) (v int, rest []byte, ok bool) {
	i := len(after)
	if len(b) < i || string(b[:i]) != after {
		return 0, nil, false
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int(b[i]-'0')
	}
	digits := i - len(after)
	return v, b[i:], digits > 0 && digits <= maxDigits && (digits == 1 || b[len(after)] != '0')
}

// Count returns the number of matches for a path expression.
func (d *Doc) Count(path string) (int, error) {
	ids, err := d.Query(path)
	return len(ids), err
}

// Explain returns the server's rendered EXPLAIN tree for a path.
func (d *Doc) Explain(path string) (string, error) {
	var resp struct {
		Explain string `json:"explain"`
	}
	if err := d.c.call("POST", d.c.docPath(d.name, "explain"), map[string]string{"path": path}, &resp); err != nil {
		return "", err
	}
	return resp.Explain, nil
}

// XML fetches the serialized document.
func (d *Doc) XML() (string, error) {
	raw, err := d.c.roundTrip("GET", d.c.docPath(d.name, "xml"), nil)
	return string(raw), err
}

// ---------------------------------------------------------------------------
// Edits

// Edit is the wire form of one edit operation for Batch.
type Edit struct {
	Op       string `json:"op"` // insert-element | insert-tree | delete
	Parent   int    `json:"parent,omitempty"`
	Pos      int    `json:"pos,omitempty"`
	Name     string `json:"name,omitempty"`
	Fragment string `json:"fragment,omitempty"`
	Node     int    `json:"node,omitempty"`
}

// EditResult is what one edit did.
type EditResult struct {
	IDs       []int `json:"ids,omitempty"`
	Relabeled int   `json:"relabeled"`
	Removed   int   `json:"removed,omitempty"`
}

// EditAck acknowledges an edit or batch: per-edit results and the
// journal sequence covering them — the value to hand a follower's
// FollowHorizon for read-your-writes.
type EditAck struct {
	Results []EditResult `json:"results"`
	Applied int          `json:"applied"`
	Seq     uint64       `json:"seq"`
}

// Edit applies one edit.
func (d *Doc) Edit(e Edit) (EditAck, error) {
	var ack EditAck
	err := d.c.call("POST", d.c.docPath(d.name, "edit"), e, &ack)
	return ack, err
}

// InsertElement inserts a fresh element as the pos-th child of parent
// and returns the ack carrying its id.
func (d *Doc) InsertElement(parent, pos int, name string) (EditAck, error) {
	return d.Edit(Edit{Op: "insert-element", Parent: parent, Pos: pos, Name: name})
}

// InsertTree inserts fragment (XML text) as the pos-th child of
// parent.
func (d *Doc) InsertTree(parent, pos int, fragment string) (EditAck, error) {
	return d.Edit(Edit{Op: "insert-tree", Parent: parent, Pos: pos, Fragment: fragment})
}

// Delete removes the node and its subtree.
func (d *Doc) Delete(node int) (EditAck, error) {
	return d.Edit(Edit{Op: "delete", Node: node})
}

// Batch applies the edits atomically per server-side chunk.
func (d *Doc) Batch(edits []Edit) (EditAck, error) {
	var ack EditAck
	err := d.c.call("POST", d.c.docPath(d.name, "batch"), map[string]any{"edits": edits}, &ack)
	return ack, err
}

// ---------------------------------------------------------------------------
// Durability, replication, lifecycle

// Sync forces a durability point (on a follower server: one catch-up
// poll against its leader).
func (d *Doc) Sync() error {
	return d.c.call("POST", d.c.docPath(d.name, "sync"), struct{}{}, nil)
}

// Checkpoint bounds the document's future replay time.
func (d *Doc) Checkpoint() error {
	return d.c.call("POST", d.c.docPath(d.name, "checkpoint"), struct{}{}, nil)
}

// Close evicts the server-resident handle; the document stays openable.
func (d *Doc) Close() error {
	return d.c.call("POST", d.c.docPath(d.name, "close"), struct{}{}, nil)
}

// Stats is the per-document stats reply.
type Stats struct {
	Name      string `json:"name"`
	Scheme    string `json:"scheme"`
	Nodes     int    `json:"nodes"`
	Relabeled int64  `json:"relabeled"`
	// LongestLabel against Storage.MaxLabel (both in bytes; zero when
	// unbounded) is how close the document is to refusing inserts with
	// CodeLabelTooLong.
	LongestLabel int `json:"longest_label"`
	Storage      *struct {
		Backend        string  `json:"backend"`
		Entries        int     `json:"entries"`
		MaxLabel       int     `json:"max_label"`
		ResidentPages  int     `json:"resident_pages"`
		AllocatedPages int     `json:"allocated_pages"`
		CacheHits      uint64  `json:"cache_hits"`
		CacheMisses    uint64  `json:"cache_misses"`
		Writebacks     uint64  `json:"writebacks"`
		CacheHitRatio  float64 `json:"cache_hit_ratio"`
	} `json:"storage,omitempty"`
	Journal *struct {
		Appended    uint64 `json:"appended"`
		Durable     uint64 `json:"durable"`
		Seq         uint64 `json:"seq"`
		Generation  uint64 `json:"generation"`
		Checkpoints uint64 `json:"checkpoints"`
		Mode        string `json:"mode"`
	} `json:"journal,omitempty"`
	Replica *struct {
		Seq           uint64 `json:"seq"`
		Horizon       uint64 `json:"horizon"`
		LeaderHorizon uint64 `json:"leader_horizon"`
		Generation    uint64 `json:"generation"`
		Resets        uint64 `json:"resets"`
		LastErr       string `json:"last_err,omitempty"`
	} `json:"replica,omitempty"`
}

// Stats fetches the document's current stats, journal and replica
// counters included.
func (d *Doc) Stats() (Stats, error) {
	var st Stats
	err := d.c.call("GET", d.c.docPath(d.name, ""), nil, &st)
	return st, err
}

// FollowHorizon asks the server to wait until the document's durable
// horizon reaches min or the wait expires, and reports the horizon it
// observed plus whether min was reached — read-your-writes against a
// follower: pass the Seq from a leader EditAck.
func (d *Doc) FollowHorizon(min uint64, wait time.Duration) (uint64, bool, error) {
	var resp struct {
		Horizon uint64 `json:"horizon"`
		Reached bool   `json:"reached"`
	}
	path := fmt.Sprintf("%s?min=%d&waitms=%d", d.c.docPath(d.name, "horizon"), min, wait.Milliseconds())
	if err := d.c.call("GET", path, nil, &resp); err != nil {
		return 0, false, err
	}
	return resp.Horizon, resp.Reached, nil
}

// Journal pulls one raw encoded ship chunk from position from (use
// dynxml.FromScratch semantics: ^uint64(0) asks for a snapshot) — the
// bytes journal.DecodeShipStream accepts. Most followers should use
// dynxml.OpenFollower instead; this is the escape hatch for custom
// transports and tooling.
func (d *Doc) Journal(from uint64, limit int) ([]byte, error) {
	path := fmt.Sprintf("%s?from=%d&limit=%d", d.c.docPath(d.name, "journal"), from, limit)
	return d.c.roundTrip("GET", path, nil)
}

// ---------------------------------------------------------------------------
// Watch: server-sent events

// Notification is one coalesced change report from Watch, mirroring
// the document layer's notification.
type Notification struct {
	Gen       uint64 `json:"gen"`
	Batches   int    `json:"batches"`
	Added     int    `json:"added"`
	Removed   int    `json:"removed"`
	IDs       []int  `json:"ids,omitempty"`
	Requeried bool   `json:"requeried,omitempty"`
}

// Watch subscribes to a path expression over the server's SSE stream.
// Notifications arrive on the returned channel until cancel is called,
// ctx ends, or the server drops the stream; the channel closes when
// the subscription ends. The error return covers subscription setup
// only — the server has accepted the stream once Watch returns nil.
func (d *Doc) Watch(ctx context.Context, path string) (<-chan Notification, func(), error) {
	ctx, cancel := context.WithCancel(ctx)
	u := fmt.Sprintf("%s?path=%s", d.c.docPath(d.name, "watch"), url.QueryEscape(path))
	req, err := http.NewRequestWithContext(ctx, "GET", d.c.base+u, nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req.Header.Set("X-Request-ID", newRequestID())
	req.Header.Set("Accept", "text/event-stream")
	// The SSE stream outlives any sane request timeout: use the
	// transport without the client's deadline.
	hc := &http.Client{Transport: d.c.hc.Transport}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		cancel()
		return nil, nil, readAPIError(resp)
	}
	ch := make(chan Notification, 16)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue // comments, heartbeats, blank separators
			}
			var n Notification
			if err := json.Unmarshal([]byte(line[len("data: "):]), &n); err != nil {
				continue
			}
			select {
			case ch <- n:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, cancel, nil
}
