package web

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	dynxml "repro"
)

// The replication sync surface: followers pull binary journal chunks
// from GET /v1/docs/{name}/journal, read-your-writes clients wait on
// GET /v1/docs/{name}/horizon, and subscribers stream coalesced change
// notifications from GET /v1/docs/{name}/watch as server-sent events.
// These routes stream or long-poll, so they bypass the buffering
// timeout middleware (routeStream) and instead bound their own waits.

// Long-poll and stream bounds.
const (
	maxWaitMS      = 60_000           // cap on ?waitms long-poll waits
	watchHeartbeat = 15 * time.Second // SSE keep-alive comment cadence
)

// queryUint parses an unsigned query parameter, with def when absent.
func queryUint(r *http.Request, key string, def uint64) (uint64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want an unsigned integer", key, s)
	}
	return v, nil
}

// handleJournal serves one encoded ship chunk: everything after
// position ?from (absent or "scratch": a from-scratch fetch answered
// with the current checkpoint snapshot), at most ?limit batches (the
// journal clamps it to the ship protocol's chunk cap).
// ?waitms long-polls: when the durable horizon has nothing past from
// yet, the handler waits up to that many milliseconds for new durable
// batches before answering, so a quiet leader costs followers one
// cheap parked request instead of a busy poll loop.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	from := uint64(dynxml.FromScratch)
	if fs := r.URL.Query().Get("from"); fs != "" && fs != "scratch" {
		v, err := queryUint(r, "from", 0)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
		from = v
	}
	limit, err := queryUint(r, "limit", 512)
	if err != nil || limit == 0 {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "bad limit: want a positive integer")
		return
	}
	waitms, err := queryUint(r, "waitms", 0)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.withDoc(w, r, func(h *dynxml.Handle) {
		// A from-scratch fetch always has a snapshot to serve; only a
		// positioned follower that is already caught up parks here.
		if waitms > 0 && from != uint64(dynxml.FromScratch) && h.Horizon() <= from {
			// Best-effort park: whether the horizon moved or the wait
			// expired, Ship below serves whatever is durable now.
			_, _, _ = h.FollowHorizon(from+1, time.Duration(min(waitms, maxWaitMS))*time.Millisecond)
		}
		chunk, err := h.Ship(from, int(limit))
		if err != nil {
			fail(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(chunk)
	})
}

// handleHorizon reports the document's durable horizon. ?min with
// ?waitms turns it into the read-your-writes wait: block until the
// horizon reaches min or the wait expires, then report the horizon
// observed and whether min was reached.
func (s *Server) handleHorizon(w http.ResponseWriter, r *http.Request) {
	minSeq, err := queryUint(r, "min", 0)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	waitms, err := queryUint(r, "waitms", 0)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.withDoc(w, r, func(h *dynxml.Handle) {
		hor, reached, err := h.FollowHorizon(minSeq, time.Duration(min(waitms, maxWaitMS))*time.Millisecond)
		if err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"horizon": hor, "reached": reached})
	})
}

// handleWatch subscribes ?path on the document and streams its net
// change notifications as server-sent events: one "data:" line of
// Notification JSON per change, comment heartbeats while quiet. The
// stream ends when the client disconnects, the document closes or is
// evicted (its handle's Close ends the watch) or the server shuts down
// (EndStreams); until then the document stays pinned.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Query().Get("path")
	if path == "" {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "watch requires ?path")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, CodeInternal, "streaming unsupported")
		return
	}
	s.withDoc(w, r, func(h *dynxml.Handle) {
		ch, cancel, err := h.Watch(path)
		if err != nil {
			fail(w, r, err)
			return
		}
		defer cancel()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		// An initial comment commits the response head so the client's
		// subscription is live before any edit it triggers.
		_, _ = fmt.Fprintf(w, ": watching %s\n\n", path)
		fl.Flush()
		heartbeat := time.NewTicker(watchHeartbeat)
		defer heartbeat.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-s.streamsEnd:
				return
			case <-heartbeat.C:
				if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
					return
				}
				fl.Flush()
			case n, ok := <-ch:
				if !ok {
					return
				}
				buf, err := json.Marshal(n)
				if err != nil {
					return
				}
				if _, err := fmt.Fprintf(w, "data: %s\n\n", buf); err != nil {
					return
				}
				fl.Flush()
			}
		}
	})
}
