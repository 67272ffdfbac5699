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
// Requests are built from URLs parsed once per Doc; replies state their
// Content-Length and are read into a buffer of that size (pooled when
// the client decodes them itself), a chunked one as it comes.
//
// Of an *http.Client the package uses only the Transport, to send each
// attempt, and the Timeout, to bound it from the send to the end of the
// reply's body. Redirects are not followed: a 3xx comes back as an
// *APIError. There is no cookie jar.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default dial parameters.
const (
	// DefaultTimeout is 5 s past the server's: a slow call gets its 504.
	DefaultTimeout = 35 * time.Second
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

// WithHTTPClient substitutes the transport (TLS, instrumentation) and
// the timeout of each attempt, zero for none: of hc only Transport (nil
// for http.DefaultTransport) and Timeout are used. Redirects are not
// followed, and no cookie jar is consulted.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.rt, c.timeout = hc.Transport, hc.Timeout }
}

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
	rt      http.RoundTripper
	timeout time.Duration // of each attempt; zero for none
	retries int
	list    *url.URL // GET /v1/docs
}

// Dial validates the base URL (e.g. "http://host:8080") and returns a
// client for the server behind it. It performs no network traffic —
// the first call does.
func Dial(base string, opts ...Option) (*Client, error) {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		timeout: DefaultTimeout,
		retries: defaultRetries,
	}
	u, err := url.Parse(c.base + "/v1/docs")
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: bad base URL %q", base)
	}
	c.list = u
	for _, opt := range opts {
		opt(c)
	}
	if c.rt == nil {
		c.rt = http.DefaultTransport
	}
	return c, nil
}

// newRequestID mints the id one logical call keeps across retries.
func newRequestID() string {
	var b [8]byte
	var h [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-client"
	}
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// do runs one logical call: up to c.retries attempts under one request
// id, retrying 503s and (for body-less requests) transport errors.
// The caller owns the returned response body.
func (c *Client) do(method string, u *url.URL, body []byte) (*http.Response, error) {
	h := http.Header{"X-Request-Id": {newRequestID()}, "Accept-Encoding": identity}
	if body != nil {
		h["Content-Type"] = jsonType
	}
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff << (attempt - 1))
		}
		resp, err := c.send(method, u, h, body)
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

var (
	jsonType  = []string{"application/json"}
	emptyBody = []byte("{}")
	// identity asks for the reply as it is, which is how the server
	// sends it; without it the transport adds its own header map per
	// request to ask for gzip.
	identity = []string{"identity"}
)

// send makes one attempt on the client's transport, under a pooled
// deadline when the client has a timeout: the deadline wraps the reply's
// body, whose Close releases it.
func (c *Client) send(method string, u *url.URL, h http.Header, body []byte) (*http.Response, error) {
	if c.timeout <= 0 {
		return roundTrip(c.rt, newRequest(context.Background(), method, u, h, body))
	}
	d := startDeadline(c.timeout)
	resp, err := roundTrip(c.rt, newRequest(d, method, u, h, body))
	if err != nil {
		d.release()
		return nil, err
	}
	d.body, resp.Body = resp.Body, d
	return resp, nil
}

// roundTrip sends req on rt, holding what rt returns to the rules
// http.Client holds it to, and reports a failure as http.Client does, in
// a *url.Error.
func roundTrip(rt http.RoundTripper, req *http.Request) (*http.Response, error) {
	resp, err := rt.RoundTrip(req)
	switch {
	case err != nil:
	case resp == nil:
		err = fmt.Errorf("http: RoundTripper implementation (%T) returned a nil *Response with a nil error", rt)
	case resp.Body == nil && resp.ContentLength > 0:
		err = fmt.Errorf("http: RoundTripper implementation (%T) returned a *Response with content length %d but a nil Body", rt, resp.ContentLength)
	case resp.Body == nil:
		resp.Body = http.NoBody
	}
	if err != nil {
		op := req.Method[:1] + strings.ToLower(req.Method[1:])
		return nil, &url.Error{Op: op, URL: req.URL.Redacted(), Err: err}
	}
	return resp, nil
}

// newRequest is every request the client sends: u, shared by its
// route's calls, and h, by a call's retries, are only read. GetBody lets
// the transport resend a body a dead kept-alive connection never took.
func newRequest(ctx context.Context, method string, u *url.URL, h http.Header, body []byte) *http.Request {
	r := http.Request{Method: method, URL: u, Host: u.Host, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: h}
	if body != nil {
		r.GetBody = func() (io.ReadCloser, error) { rd := new(bodyReader); rd.Reset(body); return rd, nil }
		r.Body, _ = r.GetBody()
		r.ContentLength = int64(len(body))
	}
	return r.WithContext(ctx) // the one allocation of the request itself
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

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

// readBody reads a reply whole into buf, as it arrives if it states no
// length, else growing buf never more than 1 MB (or append's rounding)
// ahead of the bytes — a stated length is not memory to commit.
func readBody(buf []byte, resp *http.Response) ([]byte, error) {
	const ahead = 1 << 20
	n := resp.ContentLength
	if n < 0 {
		b := bytes.NewBuffer(buf[:0])
		_, err := b.ReadFrom(resp.Body)
		return b.Bytes(), err
	}
	if buf = buf[:0]; int64(cap(buf)) < min(n, ahead) {
		buf = make([]byte, 0, min(n, ahead))
	}
	for {
		m, err := io.ReadFull(resp.Body, buf[len(buf):min(int64(cap(buf)), n)])
		if buf = buf[:len(buf)+m]; err != nil || int64(len(buf)) == n {
			return buf, err
		}
		buf = append(buf, make([]byte, min(n-int64(len(buf)), ahead))...)[:len(buf)]
	}
}

// replies pools the buffers (≤ maxPooled) of replies the client decodes.
var replies = sync.Pool{New: func() any { return new([]byte) }}

const maxPooled = 64 << 10

// call runs a logical request and hands its 2xx reply to decode (if
// any) in a pooled buffer that decode must not keep.
func (c *Client) call(method string, u *url.URL, body []byte, decode func([]byte) error) error {
	resp, err := c.do(method, u, body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return readAPIError(resp)
	}
	defer resp.Body.Close()
	buf := replies.Get().(*[]byte)
	raw, err := readBody(*buf, resp)
	if err == nil && decode != nil {
		err = decode(raw)
	}
	if cap(raw) <= maxPooled {
		*buf = raw[:0]
		replies.Put(buf)
	}
	return err
}

// into is a decode for call by encoding/json.
func into(out any) func([]byte) error {
	return func(raw []byte) error { return json.Unmarshal(raw, out) }
}

// url returns the URL of the document's route verb ("/query"; "" for
// the document) with query string q: a copy of the document's URL,
// which is parsed once, on the first call.
func (d *Doc) url(verb, q string) (*url.URL, error) {
	base := d.base.Load()
	if base == nil {
		var err error
		if base, err = url.Parse(d.c.base + "/v1/docs/" + url.PathEscape(d.name)); err != nil {
			return nil, err
		}
		d.base.Store(base)
	}
	u := *base
	if u.Path, u.RawQuery = u.Path+verb, q; u.RawPath != "" {
		u.RawPath += verb
	}
	return &u, nil
}

// send is call on route verb with query string q.
func (d *Doc) send(method, verb, q string, body []byte, decode func([]byte) error) error {
	u, err := d.url(verb, q)
	if err != nil {
		return err
	}
	return d.c.call(method, u, body, decode)
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
	base atomic.Pointer[url.URL] // see url
}

// Create builds a brand-new named document from XML text under the
// given scheme ("" for the server default). A name that already exists
// fails with code exists.
func (c *Client) Create(name, xml, scheme string) (*Doc, error) {
	body := appendString(append(make([]byte, 0, len(xml)+len(scheme)+32), `{"xml":`...), xml)
	if scheme != "" {
		body = appendString(append(body, `,"scheme":`...), scheme)
	}
	return c.open(name, append(body, '}'))
}

// Open opens an existing named document, replaying its journal on the
// server if it is not resident.
func (c *Client) Open(name string) (*Doc, error) {
	return c.open(name, emptyBody)
}

func (c *Client) open(name string, body []byte) (*Doc, error) {
	d := &Doc{c: c, name: name}
	if err := d.send("POST", "/open", "", body, into(&d.info)); err != nil {
		return nil, err
	}
	return d, nil
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
	if err := c.call("GET", c.list, nil, into(&resp)); err != nil {
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
func (d *Doc) Query(path string) (ids []int, err error) {
	err = d.send("POST", "/query", "", pathBody(path), func(raw []byte) (err error) {
		var ok bool
		if ids, ok = decodeQueryReply(raw); !ok {
			var resp struct{ IDs []int }
			err = json.Unmarshal(raw, &resp)
			ids = resp.IDs
		}
		return err
	})
	return ids, err
}

// pathBody is the query and explain routes' request, {"path":path}.
func pathBody(path string) []byte {
	return append(appendString(append(make([]byte, 0, len(path)+12), `{"path":`...), path), '}')
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
	if err := d.send("POST", "/explain", "", pathBody(path), into(&resp)); err != nil {
		return "", err
	}
	return resp.Explain, nil
}

// XML fetches the serialized document.
func (d *Doc) XML() (xml string, err error) {
	err = d.send("GET", "/xml", "", nil, func(raw []byte) error { xml = string(raw); return nil })
	return xml, err
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
	return d.edit("/edit", appendEdit(make([]byte, 0, 64+len(e.Name)+len(e.Fragment)), e))
}

// edit posts an edit or batch body and decodes its ack.
func (d *Doc) edit(verb string, body []byte) (ack EditAck, err error) {
	err = d.send("POST", verb, "", body, func(raw []byte) (err error) {
		var ok bool
		if ack, ok = decodeEditAck(raw); !ok {
			var a EditAck // not ack, which holds what the fast path left
			err = json.Unmarshal(raw, &a)
			ack = a
		}
		return err
	})
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
	body := []byte(`{"edits":[`)
	for i, e := range edits {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendEdit(body, e)
	}
	return d.edit("/batch", append(body, "]}"...))
}

// ---------------------------------------------------------------------------
// Durability, replication, lifecycle

// Sync forces a durability point (on a follower server: one catch-up
// poll against its leader).
func (d *Doc) Sync() error {
	return d.send("POST", "/sync", "", emptyBody, nil)
}

// Checkpoint bounds the document's future replay time.
func (d *Doc) Checkpoint() error {
	return d.send("POST", "/checkpoint", "", emptyBody, nil)
}

// Close evicts the server-resident handle; the document stays openable.
func (d *Doc) Close() error {
	return d.send("POST", "/close", "", emptyBody, nil)
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
	err := d.send("GET", "", "", nil, into(&st))
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
	q := fmt.Sprintf("min=%d&waitms=%d", min, wait.Milliseconds())
	if err := d.send("GET", "/horizon", q, nil, into(&resp)); err != nil {
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
	var chunk []byte
	q := fmt.Sprintf("from=%d&limit=%d", from, limit)
	err := d.send("GET", "/journal", q, nil, func(raw []byte) error { chunk = bytes.Clone(raw); return nil })
	return chunk, err
}

// ---------------------------------------------------------------------------
// Watch: server-sent events

// Notification is one net change report from Watch, mirroring the
// document layer's notification: the answer at generation Gen against
// the answer at the previous notification, Batches generations before.
type Notification struct {
	Gen     uint64 `json:"gen"`
	Batches int    `json:"batches"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	IDs     []int  `json:"ids,omitempty"`
}

// Watch subscribes to a path expression over the server's SSE stream.
// Notifications arrive on the returned channel until cancel is called,
// ctx ends, or the server drops the stream; the channel closes when
// the subscription ends. The error return covers subscription setup
// only — the server has accepted the stream once Watch returns nil.
func (d *Doc) Watch(ctx context.Context, path string) (<-chan Notification, func(), error) {
	u, err := d.url("/watch", "path="+url.QueryEscape(path))
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	h := http.Header{"X-Request-Id": {newRequestID()}, "Accept": {"text/event-stream"}, "Accept-Encoding": identity}
	// The SSE stream outlives any sane request timeout: no deadline.
	resp, err := roundTrip(d.c.rt, newRequest(ctx, "GET", u, h, nil))
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
