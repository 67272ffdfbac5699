package dynxml

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/dyndoc"
	"repro/internal/journal"
)

// ---------------------------------------------------------------------------
// Followers: read-only replicas fed by journal shipping

// Notification is one coalesced change report from Handle.Watch: the
// snapshot generation it describes, how many published batches it
// covers, and the net node ids that entered and left the watched
// query's result set.
type Notification = dyndoc.Notification

// FromScratch is the journal-shipping position of a follower with no
// local state: Ship and the /v1 journal endpoint answer it with the
// leader's current checkpoint snapshot plus the tail.
const FromScratch = journal.FromScratch

// ErrReadOnly reports a mutating call on a follower handle, matching
// errors.Is. Followers replicate a leader's journal; all writes must go
// to the leader.
var ErrReadOnly = errors.New("dynxml: follower handle is read-only")

// ErrNotFound reports a follow fetch whose leader no longer serves the
// document (HTTP 404), matching errors.Is.
var ErrNotFound = errors.New("dynxml: document not found")

// WithFollowURL points OpenFollower at a leader's journal endpoint —
// typically http://host/v1/docs/{name}/journal as served by dynxmld.
// Each poll pulls a binary ship chunk from it.
func WithFollowURL(url string) Option { return func(c *config) { c.followURL = url } }

// WithFollowDir names the follower's local mirror: the directory the
// fetched batches are persisted into before the advertised horizon
// advances, so the follower serves everything at or below that horizon
// across kills and restarts. A caller who wants an ephemeral replica
// passes a temporary directory of its own.
func WithFollowDir(dir string) Option { return func(c *config) { c.followDir = dir } }

// OpenFollower opens a read-only replica of a leader document and keeps
// it converging in the background. src must be nil — the replica's
// whole state comes from the leader's journal — and both WithFollowURL
// and WithFollowDir are required: ship chunks are pulled over HTTP into
// the mirror, and after a kill and restart the handle serves everything
// at or below its last advertised horizon before ever reaching the
// leader again.
//
// The handle is concurrent and watchable but rejects every mutating
// call with ErrReadOnly. Sync runs one explicit catch-up poll;
// FollowHorizon is the read-your-writes wait.
func OpenFollower(src any, opts ...Option) (*Handle, error) {
	cfg := config{scheme: DefaultScheme}
	for _, opt := range opts {
		opt(&cfg)
	}
	if src != nil {
		return nil, errors.New("dynxml: OpenFollower replicates the leader's journal; pass nil src")
	}
	if cfg.journalDir != "" || cfg.durability != nil || cfg.recover {
		return nil, errors.New("dynxml: WithJournal/WithDurability/WithRecover do not apply to a follower")
	}
	if cfg.followURL == "" || cfg.followDir == "" {
		return nil, errors.New("dynxml: OpenFollower needs both WithFollowURL and WithFollowDir")
	}
	if u, err := url.Parse(cfg.followURL); err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("dynxml: bad follow URL %q", cfg.followURL)
	}
	f, err := journal.OpenFollower(journal.FollowerConfig{Dir: cfg.followDir, Fetch: httpFetch(cfg.followURL)})
	if err != nil {
		return nil, err
	}
	h := newHandle()
	h.follower = f
	h.shared = f.Doc()
	h.doc = h.shared
	h.schemeName = f.Scheme()
	return h, nil
}

// httpFetch adapts a leader journal endpoint into a FetchFunc: GET
// url?from=N&limit=M, body decoded — and hostile-input checked — by
// DecodeShipStream.
func httpFetch(url string) journal.FetchFunc {
	client := &http.Client{Timeout: 30 * time.Second}
	return func(from uint64, max int) (*journal.ShipChunk, error) {
		sep := "?"
		if strings.Contains(url, "?") {
			sep = "&"
		}
		resp, err := client.Get(fmt.Sprintf("%s%sfrom=%d&limit=%d", url, sep, from, max))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil, ErrNotFound
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return nil, fmt.Errorf("dynxml: follow fetch: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		return journal.DecodeShipStream(resp.Body, from)
	}
}

// Following reports whether the handle is a read-only follower.
func (h *Handle) Following() bool { return h.follower != nil }

// Follower returns the underlying replica machinery, or nil on a
// leader handle.
func (h *Handle) Follower() *journal.Follower { return h.follower }

// Watch subscribes to a path expression on a concurrent handle. The
// returned channel delivers one coalesced Notification per burst of
// published batches that changed the query's result set; the returned
// cancel deregisters the watcher and closes the channel. On a follower
// the notifications fire as replicated batches are applied — a
// downstream cache hears about leader writes without polling.
func (h *Handle) Watch(path string) (<-chan Notification, func(), error) {
	if err := h.acquire(); err != nil {
		return nil, nil, err
	}
	defer h.release()
	if h.shared == nil {
		return nil, nil, errors.New("dynxml: Watch requires a concurrent handle")
	}
	return h.shared.Watch(path)
}

// Horizon returns the handle's durable horizon: on a journaled leader
// the highest batch sequence on stable storage, on a follower the
// highest sequence it still serves after a kill and restart. Zero on an
// unjournaled handle.
func (h *Handle) Horizon() uint64 {
	if h.follower != nil {
		return h.follower.Horizon()
	}
	if h.jnl != nil {
		return h.jnl.DurableHorizon()
	}
	return 0
}

// FollowHorizon blocks until the durable horizon reaches min or the
// timeout expires, returning the horizon observed and whether min was
// reached — the read-your-writes wait: a client that saw sequence S
// acknowledged by the leader calls FollowHorizon(S, …) on a follower
// before reading. On a journaled leader it waits on the journal's own
// durable horizon; on an unjournaled handle there is nothing to wait
// for and it reports min reached only when min is zero.
func (h *Handle) FollowHorizon(min uint64, timeout time.Duration) (uint64, bool, error) {
	if err := h.acquire(); err != nil {
		return 0, false, err
	}
	defer h.release()
	if h.follower != nil {
		hor, ok := h.follower.WaitHorizon(min, timeout)
		return hor, ok, nil
	}
	if h.jnl != nil {
		hor, ok := h.jnl.WaitHorizon(min, timeout)
		return hor, ok, nil
	}
	return 0, min == 0, nil
}

// Ship reads back everything a follower positioned at from still
// needs — at most maxBatches batches, only ever sequences at or below
// the durable horizon — and returns it as one encoded ship chunk, the
// exact bytes the /v1 journal endpoint serves. from == FromScratch
// asks for the current checkpoint snapshot plus the tail. It requires
// a journaled leader handle.
func (h *Handle) Ship(from uint64, maxBatches int) ([]byte, error) {
	if err := h.acquire(); err != nil {
		return nil, err
	}
	defer h.release()
	if h.jnl == nil {
		return nil, errors.New("dynxml: Ship requires a journaled handle")
	}
	chunk, err := h.jnl.Ship(from, maxBatches)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := journal.EncodeShipChunk(&buf, chunk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
