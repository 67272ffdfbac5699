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
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/xmltree"
	"repro/internal/xpath/plan"
)

// maxBodyBytes bounds request bodies; a batch of a few hundred
// thousand small edits still fits comfortably.
const maxBodyBytes = 64 << 20

// writeJSON renders v with the given status as json.Encoder would,
// stating its length: a 504 goes out while its handler still runs, and
// must not leave chunked.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, _ := json.Marshal(v)
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
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
	name, created := r.PathValue("name"), req.XML != ""
	var pin *catalog.Pin
	var err error
	if created {
		pin, err = s.cat.Create(name, req.XML, req.Scheme)
	} else {
		pin, err = s.cat.Acquire(name)
	}
	if err != nil {
		fail(w, r, err)
		return
	}
	defer pin.Release()
	h := pin.Handle()
	writeJSON(w, http.StatusOK, docInfo{Name: name, Scheme: h.Scheme(), Nodes: h.Len(), Created: created, Resident: true})
}

type listResponse struct {
	Documents []docEntry `json:"documents"`
	catalog.Stats
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
	resp := listResponse{Documents: make([]docEntry, 0, len(names)), Stats: s.cat.Stats()}
	for _, n := range names {
		resp.Documents = append(resp.Documents, docEntry{Name: n, Resident: s.cat.Resident(n)})
	}
	writeJSON(w, http.StatusOK, resp)
}

// The storage, journal and replica stats are in their /v1 form by their
// tags; the reply adds the journal mode's name.
type journalInfo struct {
	journal.Stats
	Mode string `json:"mode"`
}

type statsResponse struct {
	Name         string `json:"name"`
	Scheme       string `json:"scheme"`
	Nodes        int    `json:"nodes"`
	Relabeled    int64  `json:"relabeled"`
	LongestLabel int    `json:"longest_label,omitempty"`
	// ResidentBytes is Handle.MemoryFootprint, the estimate the catalog
	// budgets the document by.
	ResidentBytes int64                  `json:"resident_bytes"`
	Storage       dynxml.StorageStats    `json:"storage"`
	Journal       *journalInfo           `json:"journal,omitempty"`
	Replica       *journal.FollowerStats `json:"replica,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.withDoc(w, r, func(h *dynxml.Handle) {
		st := h.Stats()
		resp := statsResponse{
			Name:          r.PathValue("name"),
			Scheme:        st.Scheme,
			Nodes:         st.Nodes,
			Relabeled:     st.Relabeled,
			LongestLabel:  st.LongestLabel,
			ResidentBytes: h.MemoryFootprint(),
			Storage:       st.Storage,
		}
		if st.Journaled {
			resp.Journal = &journalInfo{st.Journal, st.Journal.Mode.String()}
		}
		if st.Following {
			resp.Replica = &st.Replica
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

// parseQueryReply is renderQueryReply's inverse: the ids of a reply it
// rendered, allocated once at their count, nil for none. It reads
// nothing else.
func parseQueryReply(b []byte) []int {
	n, b := leadingInt(b[len(`{"count":`):])
	if n == 0 {
		return nil
	}
	ids := make([]int, n)
	b = b[len(`,"ids":[`)-1:]
	for i := range ids {
		ids[i], b = leadingInt(b[1:]) // past the bracket or comma before the id
	}
	return ids
}

// leadingInt parses the decimal digits b starts with and returns the
// rest.
func leadingInt(b []byte) (int, []byte) {
	v, i := 0, 0
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = 10*v + int(b[i]-'0')
	}
	return v, b[i:]
}

// queryReply is the form the query route serves an answer in.
var queryReply = plan.Rendering{Render: renderQueryReply, Parse: parseQueryReply}

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
		body, err := h.QueryRendered(req.Path, queryReply)
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

// editSeq reads the journal sequence after a successful edit: the ack's
// read-your-writes anchor (0 unjournaled). Under concurrent writers it
// may cover later batches too, which is safe to wait on.
func editSeq(h *dynxml.Handle) uint64 {
	st := h.Stats()
	if !st.Journaled {
		return 0
	}
	return st.Journal.Seq
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
	s.applyEdits(w, r, []dynxml.Edit{edit})
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
	s.applyEdits(w, r, edits)
}

// applyEdits applies edits to the named document and writes the ack,
// rendered straight into a buffered response's body.
func (s *Server) applyEdits(w http.ResponseWriter, r *http.Request, edits []dynxml.Edit) {
	s.withDoc(w, r, func(h *dynxml.Handle) {
		results, err := h.ApplyBatch(edits)
		if err != nil {
			fail(w, r, err)
			return
		}
		var b []byte
		if br, ok := w.(*bufferedResponse); ok {
			b = br.body.AvailableBuffer()
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(renderEditReply(b, results, editSeq(h)))
	})
}

// ---------------------------------------------------------------------------
// Durability / lifecycle

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	s.durably(w, r, (*dynxml.Handle).Sync, "synced")
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	s.durably(w, r, (*dynxml.Handle).Checkpoint, "checkpointed")
}

// durably runs op on the named document and acknowledges it as done.
func (s *Server) durably(w http.ResponseWriter, r *http.Request, op func(*dynxml.Handle) error, done string) {
	s.withDoc(w, r, func(h *dynxml.Handle) {
		if err := op(h); err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{done: true})
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
