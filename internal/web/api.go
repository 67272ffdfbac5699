package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	dynxml "repro"
	"repro/internal/catalog"
	"repro/internal/metrics"
	"repro/internal/xmltree"
)

// maxBodyBytes bounds request bodies; a batch of a few hundred
// thousand small edits still fits comfortably.
const maxBodyBytes = 64 << 20

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeJSON parses the request body into dst, rejecting unknown
// fields and trailing garbage with a 400. A missing or empty body is
// allowed when allowEmpty is set — dst keeps its zero value.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if allowEmpty && errors.Is(err, io.EOF) {
			return true
		}
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	if dec.More() {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "invalid JSON body: trailing data")
		return false
	}
	return true
}

// withDoc pins the named document for the duration of fn. All the
// per-document handlers run through here, so eviction, lazy replay
// and not-found mapping are uniform.
func (s *Server) withDoc(w http.ResponseWriter, r *http.Request, fn func(h *dynxml.Handle)) {
	pin, err := s.cat.Acquire(r.PathValue("name"))
	if err != nil {
		fail(w, r, err)
		return
	}
	defer pin.Release()
	fn(pin.Handle())
}

// ---------------------------------------------------------------------------
// Open / list / stats

type openRequest struct {
	// XML is the initial document text. Present: create the document
	// (conflict if it already exists). Absent: open an existing one.
	XML string `json:"xml,omitempty"`
	// Scheme picks the labeling scheme for a create (default: the
	// server's). An existing document keeps its recorded scheme.
	Scheme string `json:"scheme,omitempty"`
}

type docInfo struct {
	Name     string `json:"name"`
	Scheme   string `json:"scheme"`
	Nodes    int    `json:"nodes"`
	Created  bool   `json:"created,omitempty"`
	Resident bool   `json:"resident"`
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req openRequest
	if !decodeJSON(w, r, &req, true) {
		return
	}
	name := r.PathValue("name")
	var (
		pin     *catalog.Pin
		err     error
		created bool
	)
	if req.XML != "" {
		pin, err = s.cat.Create(name, req.XML, req.Scheme)
		created = true
	} else {
		pin, err = s.cat.Acquire(name)
	}
	if err != nil {
		fail(w, r, err)
		return
	}
	defer pin.Release()
	h := pin.Handle()
	writeJSON(w, http.StatusOK, docInfo{
		Name: name, Scheme: h.Scheme(), Nodes: h.Len(), Created: created, Resident: true,
	})
}

type listResponse struct {
	Documents     []docEntry `json:"documents"`
	ResidentDocs  int        `json:"resident_docs"`
	ResidentBytes int64      `json:"resident_bytes"`
	MemBudget     int64      `json:"mem_budget"`
	MaxOpen       int        `json:"max_open"`
}

type docEntry struct {
	Name     string `json:"name"`
	Resident bool   `json:"resident"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names, err := s.cat.Names()
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	st := s.cat.Stats()
	resp := listResponse{
		Documents:     make([]docEntry, 0, len(names)),
		ResidentDocs:  st.ResidentDocs,
		ResidentBytes: st.ResidentBytes,
		MemBudget:     st.MemBudget,
		MaxOpen:       st.MaxOpen,
	}
	for _, n := range names {
		resp.Documents = append(resp.Documents, docEntry{Name: n, Resident: s.cat.Resident(n)})
	}
	writeJSON(w, http.StatusOK, resp)
}

type journalInfo struct {
	Appended    uint64 `json:"appended"`
	Durable     uint64 `json:"durable"`
	Seq         uint64 `json:"seq"`
	Generation  uint64 `json:"generation"`
	Checkpoints uint64 `json:"checkpoints"`
	Mode        string `json:"mode"`
}

type replicaInfo struct {
	Seq           uint64 `json:"seq"`
	Horizon       uint64 `json:"horizon"`
	LeaderHorizon uint64 `json:"leader_horizon"`
	Generation    uint64 `json:"generation"`
	Resets        uint64 `json:"resets"`
	LastErr       string `json:"last_err,omitempty"`
}

type storageInfo struct {
	Backend        string  `json:"backend"`
	Entries        int     `json:"entries"`
	MaxLabel       int     `json:"max_label,omitempty"`
	ResidentPages  int     `json:"resident_pages,omitempty"`
	AllocatedPages int     `json:"allocated_pages,omitempty"`
	CacheHits      uint64  `json:"cache_hits,omitempty"`
	CacheMisses    uint64  `json:"cache_misses,omitempty"`
	Writebacks     uint64  `json:"writebacks,omitempty"`
	CacheHitRatio  float64 `json:"cache_hit_ratio,omitempty"`
}

type statsResponse struct {
	Name         string       `json:"name"`
	Scheme       string       `json:"scheme"`
	Nodes        int          `json:"nodes"`
	Relabeled    int64        `json:"relabeled"`
	LongestLabel int          `json:"longest_label,omitempty"`
	Storage      *storageInfo `json:"storage,omitempty"`
	Journal      *journalInfo `json:"journal,omitempty"`
	Replica      *replicaInfo `json:"replica,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.withDoc(w, r, func(h *dynxml.Handle) {
		st := h.Stats()
		resp := statsResponse{
			Name:         r.PathValue("name"),
			Scheme:       st.Scheme,
			Nodes:        st.Nodes,
			Relabeled:    st.Relabeled,
			LongestLabel: st.LongestLabel,
		}
		if st.Storage.Backend != "" {
			resp.Storage = &storageInfo{
				Backend:        st.Storage.Backend,
				Entries:        st.Storage.Entries,
				MaxLabel:       st.Storage.MaxLabel,
				ResidentPages:  st.Storage.ResidentPages,
				AllocatedPages: st.Storage.AllocatedPages,
				CacheHits:      st.Storage.CacheHits,
				CacheMisses:    st.Storage.CacheMisses,
				Writebacks:     st.Storage.Writebacks,
				CacheHitRatio:  st.Storage.CacheHitRatio(),
			}
		}
		if st.Journaled {
			resp.Journal = &journalInfo{
				Appended:    st.Journal.Appended,
				Durable:     st.Journal.Durable,
				Seq:         st.Journal.Seq,
				Generation:  st.Journal.Generation,
				Checkpoints: st.Journal.Checkpoints,
				Mode:        st.Journal.Mode.String(),
			}
		}
		if st.Following {
			resp.Replica = &replicaInfo{
				Seq:           st.Replica.Seq,
				Horizon:       st.Replica.Horizon,
				LeaderHorizon: st.Replica.LeaderHorizon,
				Generation:    st.Replica.Generation,
				Resets:        st.Replica.Resets,
				LastErr:       st.Replica.LastErr,
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

func (s *Server) handleXML(w http.ResponseWriter, r *http.Request) {
	s.withDoc(w, r, func(h *dynxml.Handle) {
		w.Header().Set("Content-Type", "application/xml")
		_, _ = io.WriteString(w, h.XML())
	})
}

// ---------------------------------------------------------------------------
// Query / explain

type queryRequest struct {
	Path string `json:"path"`
}

// renderQueryReply is the query route's reply: byte for byte what
// json.Encoder writes for {"count": len(ids), "ids": ids}, newline
// included, nil sent as []. A concurrent handle keeps it for as long as
// the cached result, so it is allocated at its exact length.
func renderQueryReply(ids []int) []byte {
	n := len(`{"count":,"ids":[]}`+"\n") + decimalLen(len(ids)) + max(len(ids)-1, 0) // a comma between two ids
	for _, id := range ids {
		n += decimalLen(id)
	}
	b := make([]byte, 0, n)
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(ids)), 10)
	b = append(b, `,"ids":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, "]}\n"...)
}

// decimalLen is the number of digits of a non-negative v.
func decimalLen(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	s.withDoc(w, r, func(h *dynxml.Handle) {
		body, err := h.QueryRendered(req.Path, renderQueryReply)
		if err != nil {
			fail(w, r, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeShared(w, body)
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	s.withDoc(w, r, func(h *dynxml.Handle) {
		report, err := h.Explain(req.Path)
		if err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"explain": report})
	})
}

// ---------------------------------------------------------------------------
// Edits

// editRequest is the wire form of one edit. Fragment carries an
// insert-tree's subtree as XML text; it is parsed server-side and its
// root element becomes the inserted fragment.
type editRequest struct {
	Op       string `json:"op"` // insert-element | insert-tree | delete
	Parent   int    `json:"parent,omitempty"`
	Pos      int    `json:"pos,omitempty"`
	Name     string `json:"name,omitempty"`
	Fragment string `json:"fragment,omitempty"`
	Node     int    `json:"node,omitempty"`
}

// toEdit validates and converts the wire form.
func (e *editRequest) toEdit() (dynxml.Edit, error) {
	switch e.Op {
	case "insert-element":
		if e.Name == "" {
			return dynxml.Edit{}, errors.New("insert-element requires name")
		}
		return dynxml.Edit{Op: dynxml.OpInsertElement, Parent: e.Parent, Pos: e.Pos, Name: e.Name}, nil
	case "insert-tree":
		doc, err := xmltree.ParseString(e.Fragment)
		if err != nil {
			return dynxml.Edit{}, fmt.Errorf("insert-tree fragment: %w", err)
		}
		return dynxml.Edit{Op: dynxml.OpInsertTree, Parent: e.Parent, Pos: e.Pos, Fragment: doc.Root}, nil
	case "delete":
		return dynxml.Edit{Op: dynxml.OpDeleteSubtree, Node: e.Node}, nil
	default:
		return dynxml.Edit{}, fmt.Errorf("unknown op %q (valid: insert-element, insert-tree, delete)", e.Op)
	}
}

type editResult struct {
	IDs       []int `json:"ids,omitempty"`
	Relabeled int   `json:"relabeled"`
	Removed   int   `json:"removed,omitempty"`
}

type editResponse struct {
	Results []editResult `json:"results"`
	Applied int          `json:"applied"`
	// Seq is the journal sequence covering this edit (the handle's
	// current sequence after the batch landed): the read-your-writes
	// anchor a client hands to a follower's horizon wait. Zero on an
	// unjournaled document.
	Seq uint64 `json:"seq,omitempty"`
}

// editSeq reads the journal sequence after a successful edit. Under
// concurrent writers it may cover later batches too; waiting on a
// later sequence is always safe for read-your-writes.
func editSeq(h *dynxml.Handle) uint64 {
	st := h.Stats()
	if !st.Journaled {
		return 0
	}
	return st.Journal.Seq
}

func toResults(in []dynxml.EditResult) []editResult {
	out := make([]editResult, len(in))
	for i, r := range in {
		out[i] = editResult{IDs: r.IDs, Relabeled: r.Relabeled, Removed: r.Removed}
	}
	return out
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	var req editRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	edit, err := req.toEdit()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.withDoc(w, r, func(h *dynxml.Handle) {
		results, err := h.ApplyBatch([]dynxml.Edit{edit})
		if err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, editResponse{Results: toResults(results), Applied: len(results), Seq: editSeq(h)})
	})
}

type batchRequest struct {
	Edits []editRequest `json:"edits"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeJSON(w, r, &req, false) {
		return
	}
	if len(req.Edits) == 0 {
		writeError(w, r, http.StatusBadRequest, CodeBadRequest, "batch requires at least one edit")
		return
	}
	edits := make([]dynxml.Edit, len(req.Edits))
	for i := range req.Edits {
		e, err := req.Edits[i].toEdit()
		if err != nil {
			writeError(w, r, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("edit %d: %s", i, err))
			return
		}
		edits[i] = e
	}
	s.withDoc(w, r, func(h *dynxml.Handle) {
		results, err := h.ApplyBatch(edits)
		if err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, editResponse{Results: toResults(results), Applied: len(results), Seq: editSeq(h)})
	})
}

// ---------------------------------------------------------------------------
// Durability / lifecycle

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	s.withDoc(w, r, func(h *dynxml.Handle) {
		if err := h.Sync(); err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"synced": true})
	})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.withDoc(w, r, func(h *dynxml.Handle) {
		if err := h.Checkpoint(); err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"checkpointed": true})
	})
}

// handleClose checkpoints and closes the named document's resident
// handle without touching its journal — the document stays openable.
// It deliberately does not Acquire: closing a non-resident document
// is a no-op, not a replay.
func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := s.cat.Evict(r.PathValue("name")); err != nil {
		fail(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// ---------------------------------------------------------------------------
// Introspection

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = metrics.Default.WriteJSON(w)
}
