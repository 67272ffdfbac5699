package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	dynxml "repro"
	"repro/client"
	"repro/internal/bitstr"
	"repro/internal/catalog"
	"repro/internal/cdbs"
	"repro/internal/dyndoc"
	"repro/internal/journal"
	"repro/internal/keys"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/store"
	"repro/internal/web"
	"repro/internal/xpath"
	"repro/internal/xpath/plan"
)

// sysSpec is how a workload configures the system under test.
type sysSpec struct {
	tmpl      *template
	docs      int
	paged     bool
	pageCache int
	// mode and interval are the journal durability of the server
	// workloads: SyncAlways, or SyncInterval every interval.
	mode     journal.Mode
	interval time.Duration
	queries  []querySpec
}

func (s *sysSpec) durability() dynxml.Durability {
	if s.mode == journal.SyncInterval {
		return dynxml.Interval(s.interval)
	}
	return dynxml.Always
}

// ---------------------------------------------------------------------------
// client: the typed client over loopback TCP

type clientStack struct {
	tr   *tracer
	c    *client.Client
	http *http.Transport
	docs []*client.Doc
}

// newClientStack dials srv. With create set it creates the documents
// from the template; otherwise it opens the ones another client made.
func newClientStack(srv *server, spec *sysSpec, create bool, tr *tracer) (*clientStack, error) {
	c, ht, err := srv.dial()
	if err != nil {
		return nil, err
	}
	s := &clientStack{tr: tr, c: c, http: ht}
	for i := 0; i < spec.docs; i++ {
		var d *client.Doc
		if create {
			d, err = c.Create(docName(i), spec.tmpl.xml, "")
		} else {
			d, err = c.Open(docName(i))
		}
		if err != nil {
			ht.CloseIdleConnections()
			return nil, err
		}
		s.docs = append(s.docs, d)
	}
	return s, nil
}

func (s *clientStack) query(doc int, q *querySpec) (ids []int, err error) {
	s.tr.do(rClientQuery, func() { ids, err = s.docs[doc].Query(q.path) })
	return ids, err
}

func ackInsert(ack client.EditAck) (id, relabeled int, err error) {
	if len(ack.Results) != 1 || len(ack.Results[0].IDs) != 1 {
		return 0, 0, fmt.Errorf("insert acknowledged %d results", len(ack.Results))
	}
	return ack.Results[0].IDs[0], ack.Results[0].Relabeled, nil
}

func (s *clientStack) insert(doc, parent, pos int) (id, relabeled int, err error) {
	var ack client.EditAck
	s.tr.do(rClientEdit, func() { ack, err = s.docs[doc].InsertElement(parent, pos, insertName) })
	if err != nil {
		return 0, 0, err
	}
	return ackInsert(ack)
}

func (s *clientStack) remove(doc, id int) error {
	_, err := s.docs[doc].Delete(id)
	return err
}

func (s *clientStack) close() error {
	s.http.CloseIdleConnections()
	return nil
}

// ---------------------------------------------------------------------------
// web: Server.ServeHTTP into a recorder, no socket

type webStack struct {
	tr        *tracer
	srv       *web.Server
	cat       *catalog.Catalog
	respBytes int64
	reads     int64
}

func newCatalog(dir string, spec *sysSpec) (*catalog.Catalog, error) {
	cat, err := catalog.Open(catalog.Config{Root: dir, Durability: spec.durability(), MaxOpen: spec.docs})
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.docs; i++ {
		pin, err := cat.Create(docName(i), spec.tmpl.fresh(), "")
		if err != nil {
			_ = cat.Close()
			return nil, err
		}
		pin.Release()
	}
	return cat, nil
}

func newWebStack(dir string, spec *sysSpec, tr *tracer) (*webStack, error) {
	cat, err := newCatalog(dir, spec)
	if err != nil {
		return nil, err
	}
	return &webStack{tr: tr, cat: cat, srv: web.New(web.Config{Catalog: cat})}, nil
}

// serve runs one POST through the handler stack and decodes a 200.
func (s *webStack) serve(tr *tracer, r rungID, doc int, route string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/docs/"+docName(doc)+"/"+route, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	tr.do(r, func() { s.srv.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("%s: http %d: %s", route, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	n := rec.Body.Len()
	return n, json.Unmarshal(rec.Body.Bytes(), out)
}

func (s *webStack) query(doc int, q *querySpec) ([]int, error) {
	var resp struct {
		IDs []int `json:"ids"`
	}
	n, err := s.serve(s.tr, rWebQuery, doc, "query", map[string]string{"path": q.path}, &resp)
	s.respBytes += int64(n)
	s.reads++
	return resp.IDs, err
}

func (s *webStack) insert(doc, parent, pos int) (int, int, error) {
	var ack client.EditAck
	edit := client.Edit{Op: "insert-element", Parent: parent, Pos: pos, Name: insertName}
	if _, err := s.serve(s.tr, rWebEdit, doc, "edit", edit, &ack); err != nil {
		return 0, 0, err
	}
	return ackInsert(ack)
}

func (s *webStack) remove(doc, id int) error {
	var ack client.EditAck
	// Untimed: deletes are not a ladder rung.
	_, err := s.serve(nil, rWebEdit, doc, "edit", client.Edit{Op: "delete", Node: id}, &ack)
	return err
}

func (s *webStack) close() error { return s.cat.Close() }

// ---------------------------------------------------------------------------
// catalog: pin, call the handle, release

type catalogStack struct {
	tr  *tracer
	cat *catalog.Catalog
}

func newCatalogStack(dir string, spec *sysSpec, tr *tracer) (*catalogStack, error) {
	cat, err := newCatalog(dir, spec)
	if err != nil {
		return nil, err
	}
	return &catalogStack{tr: tr, cat: cat}, nil
}

func (s *catalogStack) with(doc int, fn func(h *dynxml.Handle) error) error {
	pin, err := s.cat.Acquire(docName(doc))
	if err != nil {
		return err
	}
	defer pin.Release()
	return fn(pin.Handle())
}

func (s *catalogStack) query(doc int, q *querySpec) (ids []int, err error) {
	s.tr.do(rCatalogQuery, func() {
		err = s.with(doc, func(h *dynxml.Handle) error {
			var qerr error
			ids, qerr = h.QueryString(q.path)
			return qerr
		})
	})
	return ids, err
}

func (s *catalogStack) insert(doc, parent, pos int) (id, relabeled int, err error) {
	s.tr.do(rCatalogEdit, func() {
		err = s.with(doc, func(h *dynxml.Handle) error {
			var ierr error
			id, relabeled, ierr = h.InsertElement(parent, pos, insertName)
			return ierr
		})
	})
	return id, relabeled, err
}

func (s *catalogStack) remove(doc, id int) error {
	return s.with(doc, func(h *dynxml.Handle) error {
		_, err := h.DeleteSubtree(id)
		return err
	})
}

func (s *catalogStack) close() error { return s.cat.Close() }

// ---------------------------------------------------------------------------
// dynxml: the handle, live (embedded workloads) or journaled (server)

type handleStack struct {
	tr *tracer
	hs []*dynxml.Handle
}

// openHandle opens document i of spec the way its workload does: a
// journaled handle under dir for the server workloads, a live
// (non-concurrent) one — paged when the spec says so — otherwise.
func openHandle(dir string, spec *sysSpec, i int, journaled bool) (*dynxml.Handle, error) {
	var opts []dynxml.Option
	if journaled {
		opts = append(opts, dynxml.WithJournal(filepath.Join(dir, docName(i))), dynxml.WithDurability(spec.durability()))
	}
	if spec.paged {
		opts = append(opts, dynxml.WithPagedLabels(filepath.Join(dir, "pages-"+docName(i))), dynxml.WithPageCache(spec.pageCache))
	}
	return dynxml.Open(spec.tmpl.fresh(), opts...)
}

func newHandleStack(dir string, spec *sysSpec, journaled bool, tr *tracer) (*handleStack, error) {
	s := &handleStack{tr: tr}
	for i := 0; i < spec.docs; i++ {
		h, err := openHandle(dir, spec, i, journaled)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.hs = append(s.hs, h)
	}
	return s, nil
}

func (s *handleStack) query(doc int, q *querySpec) (ids []int, err error) {
	if s.tr != nil && s.tr.on {
		// QueryString parses before it evaluates; the parse is timed
		// again on its own so the handle's self time excludes it.
		s.tr.do(rParse, func() { _, err = xpath.Parse(q.path) })
		if err != nil {
			return nil, err
		}
	}
	s.tr.do(rHandleQuery, func() { ids, err = s.hs[doc].QueryString(q.path) })
	return ids, err
}

func (s *handleStack) insert(doc, parent, pos int) (id, relabeled int, err error) {
	s.tr.do(rHandleEdit, func() { id, relabeled, err = s.hs[doc].InsertElement(parent, pos, insertName) })
	return id, relabeled, err
}

func (s *handleStack) remove(doc, id int) error {
	_, err := s.hs[doc].DeleteSubtree(id)
	return err
}

func (s *handleStack) close() error {
	var err error
	for _, h := range s.hs {
		if cerr := h.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// dyndoc: the snapshot document (clone + apply + publish), no journal

type concurrentStack struct {
	tr *tracer
	cs []*dyndoc.Concurrent
}

// newDocument builds document i of spec in place, on the workload's
// index backend. wrap, when set, interposes on that backend.
func newDocument(dir string, spec *sysSpec, i int, wrap func(store.Backend) store.Backend) (*dyndoc.Document, error) {
	entry, err := registry.Lookup(dynxml.DefaultScheme)
	if err != nil {
		return nil, err
	}
	var factory dyndoc.StoreFactory
	if spec.paged || wrap != nil {
		pdir, cache := filepath.Join(dir, "pages-"+docName(i)), spec.pageCache
		factory = func(b store.Binding) (store.Backend, error) {
			var inner store.Backend = store.NewSlice(b)
			if spec.paged {
				var err error
				if inner, err = store.OpenPaged(pdir, cache, b); err != nil {
					return nil, err
				}
			}
			if wrap != nil {
				inner = wrap(inner)
			}
			return inner, nil
		}
	}
	return dyndoc.NewWithStore(spec.tmpl.fresh(), entry.Build, factory)
}

func newConcurrentStack(dir string, spec *sysSpec, tr *tracer) (*concurrentStack, error) {
	s := &concurrentStack{tr: tr}
	for i := 0; i < spec.docs; i++ {
		d, err := newDocument(dir, spec, i, nil)
		if err != nil {
			return nil, err
		}
		c, err := dyndoc.NewConcurrentFrom(d)
		if err != nil {
			return nil, err
		}
		s.cs = append(s.cs, c)
	}
	return s, nil
}

func (s *concurrentStack) query(doc int, q *querySpec) (ids []int, err error) {
	s.tr.do(rConcurrentQuery, func() { ids, err = s.cs[doc].Query(q.parsed) })
	return ids, err
}

func (s *concurrentStack) insert(doc, parent, pos int) (id, relabeled int, err error) {
	s.tr.do(rConcurrentEdit, func() { id, relabeled, err = s.cs[doc].InsertElement(parent, pos, insertName) })
	return id, relabeled, err
}

func (s *concurrentStack) remove(doc, id int) error {
	_, err := s.cs[doc].DeleteSubtree(id)
	return err
}

func (s *concurrentStack) close() error {
	var err error
	for _, c := range s.cs {
		if cerr := c.Locked(func(d *dyndoc.Document) error { return d.Store().Close() }); err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// dyndoc: the in-place document, and the clone a snapshot edit pays

type documentStack struct {
	tr *tracer
	ds []*dyndoc.Document
	// withClone times Document.Clone before every insert: the rung a
	// snapshot edit wraps beside the in-place insert.
	withClone bool
}

func newDocumentStack(dir string, spec *sysSpec, withClone bool, tr *tracer) (*documentStack, error) {
	s := &documentStack{tr: tr, withClone: withClone}
	for i := 0; i < spec.docs; i++ {
		d, err := newDocument(dir, spec, i, nil)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.ds = append(s.ds, d)
	}
	return s, nil
}

func (s *documentStack) query(doc int, q *querySpec) (ids []int, err error) {
	s.tr.do(rDocumentQuery, func() { ids, err = s.ds[doc].Query(q.parsed) })
	return ids, err
}

func (s *documentStack) insert(doc, parent, pos int) (id, relabeled int, err error) {
	d := s.ds[doc]
	if s.withClone && s.tr != nil && s.tr.on {
		// The clone is dropped, not closed: a paged clone shares its
		// original's pager.
		s.tr.do(rClone, func() { _, err = d.Clone() })
		if err != nil {
			return 0, 0, err
		}
	}
	s.tr.do(rDocumentInsert, func() { id, relabeled, err = d.InsertElement(parent, pos, insertName) })
	return id, relabeled, err
}

func (s *documentStack) remove(doc, id int) error {
	_, err := s.ds[doc].DeleteSubtree(id)
	return err
}

func (s *documentStack) close() error {
	var err error
	for _, d := range s.ds {
		if cerr := d.Store().Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// store: the element index as the document itself calls it

// storeStack is an in-place document whose index backend sits behind a
// proxy that times the calls the document makes into it: Add and
// Remove on an edit, the id lists an evaluation fetches on a query.
// The spans are the index's share of exactly what the document rung
// does, call for call — timing the same entry points beside the
// document, with arguments guessed from the query text, counted scans
// the engine never makes.
type storeStack struct {
	tr *tracer
	ds []*dyndoc.Document
	// fetchNS is the time the current query has spent fetching id lists.
	fetchNS int64
}

type timedBackend struct {
	store.Backend
	s *storeStack
}

func (b *timedBackend) Add(name string, id int) (err error) {
	b.s.tr.do(rStoreAdd, func() { err = b.Backend.Add(name, id) })
	return err
}

func (b *timedBackend) Remove(doomed map[int]bool, nameOf func(int) string) (err error) {
	b.s.tr.do(rStoreRemove, func() { err = b.Backend.Remove(doomed, nameOf) })
	return err
}

func (b *timedBackend) IDs(name string) []int {
	t0 := nowNS()
	ids := b.Backend.IDs(name)
	b.s.fetchNS += nowNS() - t0
	return ids
}

func (b *timedBackend) Elems() []int {
	t0 := nowNS()
	ids := b.Backend.Elems()
	b.s.fetchNS += nowNS() - t0
	return ids
}

func newStoreStack(dir string, spec *sysSpec, tr *tracer) (*storeStack, error) {
	s := &storeStack{tr: tr}
	for i := 0; i < spec.docs; i++ {
		d, err := newDocument(dir, spec, i, func(b store.Backend) store.Backend { return &timedBackend{Backend: b, s: s} })
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.ds = append(s.ds, d)
	}
	return s, nil
}

func (s *storeStack) query(doc int, q *querySpec) ([]int, error) {
	s.fetchNS = 0
	start := time.Now()
	ids, err := s.ds[doc].Query(q.parsed)
	s.tr.add(rStoreIDs, start, s.fetchNS)
	return ids, err
}

func (s *storeStack) insert(doc, parent, pos int) (int, int, error) {
	return s.ds[doc].InsertElement(parent, pos, insertName)
}

func (s *storeStack) remove(doc, id int) error {
	_, err := s.ds[doc].DeleteSubtree(id)
	return err
}

func (s *storeStack) close() error {
	var err error
	for _, d := range s.ds {
		if cerr := d.Store().Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// journal: encode + append + wait on a bare journal, under the
// workload's durability mode

// journalStack applies each edit as an untimed snapshot edit and then
// times the journal append of that batch: the append follows a clone,
// as it does inside a journaled handle (an append that follows one was
// measured a third slower than the same append alone).
type journalStack struct {
	tr   *tracer
	docs *concurrentStack
	js   []*journal.Journal
}

func newJournalStack(dir string, spec *sysSpec, tr *tracer) (*journalStack, error) {
	s := &journalStack{tr: tr, docs: &concurrentStack{}}
	for i := 0; i < spec.docs; i++ {
		d, err := newDocument(dir, spec, i, nil)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		j, err := journal.Create(journal.Config{
			Dir:      filepath.Join(dir, docName(i)),
			Scheme:   dynxml.DefaultScheme,
			Mode:     spec.mode,
			Interval: spec.interval,
		}, d)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.js = append(s.js, j)
		c, err := dyndoc.NewConcurrentFrom(d)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.docs.cs = append(s.docs.cs, c)
	}
	return s, nil
}

func (s *journalStack) query(doc int, q *querySpec) ([]int, error) { return s.docs.query(doc, q) }

func (s *journalStack) append(doc int, edits []dyndoc.Edit, results []dyndoc.EditResult, timed bool) error {
	tr := s.tr
	if !timed {
		tr = nil
	}
	var err error
	tr.do(rJournalEncode, func() { _, err = journal.EncodeBatch(edits, results) })
	if err != nil {
		return err
	}
	tr.do(rJournalAppend, func() {
		var wait func() error
		if wait, err = s.js[doc].Append(edits, results); err == nil && wait != nil {
			err = wait()
		}
	})
	return err
}

func (s *journalStack) insert(doc, parent, pos int) (int, int, error) {
	id, relabeled, err := s.docs.insert(doc, parent, pos)
	if err != nil {
		return 0, 0, err
	}
	edits := []dyndoc.Edit{{Op: dyndoc.OpInsertElement, Parent: parent, Pos: pos, Name: insertName}}
	results := []dyndoc.EditResult{{IDs: []int{id}, Relabeled: relabeled}}
	return id, relabeled, s.append(doc, edits, results, true)
}

func (s *journalStack) remove(doc, id int) error {
	removed, err := s.docs.cs[doc].DeleteSubtree(id)
	if err != nil {
		return err
	}
	edits := []dyndoc.Edit{{Op: dyndoc.OpDeleteSubtree, Node: id}}
	return s.append(doc, edits, []dyndoc.EditResult{{Removed: removed}}, false)
}

func (s *journalStack) close() error {
	var err error
	for _, j := range s.js {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.docs.close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// composite: a labeling and an element index held side by side, the
// two things dyndoc.Document keeps in lock step — the seat of the
// rungs beneath it

type compositeMode int

const (
	// modeWrite times cdbs.Between and Labeling.InsertChildAt on
	// inserts and DeleteSubtree on deletes. Its index is only kept in
	// step, untimed and in memory: storeStack times the index.
	modeWrite compositeMode = iota
	// The read modes each time one entry point as the first call to
	// touch the index after an edit, the position it has in the real
	// path (the paged backend memoizes id lists between edits).
	modeEngine
	modePlan
	modeCache
)

// keyed is the part of the containment labeling's surface that exposes
// the endpoint codes an insert lands between.
type keyed interface {
	StartKey(v int) keys.Key
	EndKey(v int) keys.Key
}

type compositeDoc struct {
	lab   scheme.Labeling
	keys  keyed
	idx   store.Backend
	names []string
	cache *plan.Cache
	gen   uint64
}

type compositeStack struct {
	tr   *tracer
	mode compositeMode
	docs []*compositeDoc
	// gaps are the neighbour codes every insert landed between, kept
	// for the kernel loops that time cdbs.Between and bitstr.Compare
	// without a clock read per call.
	gaps [][2]bitstr.BitString
	// Build times in ns, summed over the documents, and the element
	// count they cover.
	schemeBuildNS, storeBuildNS int64
	built                       int
}

func newCompositeStack(dir string, spec *sysSpec, mode compositeMode, tr *tracer) (*compositeStack, error) {
	entry, err := registry.Lookup(dynxml.DefaultScheme)
	if err != nil {
		return nil, err
	}
	s := &compositeStack{tr: tr, mode: mode}
	for i := 0; i < spec.docs; i++ {
		doc := spec.tmpl.fresh()
		t0 := nowNS()
		lab, err := entry.Build(doc)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.schemeBuildNS += nowNS() - t0
		k, ok := lab.(keyed)
		if !ok {
			_ = s.close()
			return nil, fmt.Errorf("scheme %s does not expose its endpoint keys", entry.Name)
		}
		cd := &compositeDoc{lab: lab, keys: k, cache: plan.NewCache()}
		var elems []int
		for id, n := range doc.Nodes() {
			cd.names = append(cd.names, n.Name)
			if n.Name != "" {
				elems = append(elems, id)
			}
		}
		b := store.Binding{Before: lab.Before}
		if ol, ok := lab.(scheme.OrderedLabeler); ok {
			b.Key = ol.AppendOrderedLabel
		}
		if spec.paged && mode != modeWrite {
			cd.idx, err = store.OpenPaged(filepath.Join(dir, "pages-"+docName(i)), spec.pageCache, b)
			if err != nil {
				_ = s.close()
				return nil, err
			}
		} else {
			cd.idx = store.NewSlice(b)
		}
		s.docs = append(s.docs, cd)
		t0 = nowNS()
		if err := cd.idx.Build(elems, cd.nameOf); err != nil {
			_ = s.close()
			return nil, err
		}
		s.storeBuildNS += nowNS() - t0
		s.built += len(elems)
	}
	return s, nil
}

func (d *compositeDoc) nameOf(id int) string {
	if id < 0 || id >= len(d.names) {
		return ""
	}
	return d.names[id]
}

// gapKeys returns the endpoint keys an insert at (parent, pos) lands
// between, as containment.Labeling.InsertChildAt finds them.
func gapKeys(lab scheme.Labeling, k keyed, parent, pos int) (l, r keys.Key) {
	kids := lab.Tree().Children[parent]
	if pos > 0 {
		l = k.EndKey(kids[pos-1])
	} else {
		l = k.StartKey(parent)
	}
	if pos < len(kids) {
		r = k.StartKey(kids[pos])
	} else {
		r = k.EndKey(parent)
	}
	return l, r
}

// gap is gapKeys for a CDBS labeling.
func (d *compositeDoc) gap(parent, pos int) (l, r bitstr.BitString, err error) {
	lk, rk := gapKeys(d.lab, d.keys, parent, pos)
	l, lok := lk.(bitstr.BitString)
	r, rok := rk.(bitstr.BitString)
	if !lok || !rok {
		return l, r, errors.New("endpoint keys are not CDBS codes")
	}
	return l, r, nil
}

func (s *compositeStack) insert(doc, parent, pos int) (id, relabeled int, err error) {
	d := s.docs[doc]
	if err := d.lab.Tree().ValidateInsert(parent, pos); err != nil {
		return 0, 0, err
	}
	if s.mode == modeWrite {
		l, r, err := d.gap(parent, pos)
		if err != nil {
			return 0, 0, err
		}
		s.gaps = append(s.gaps, [2]bitstr.BitString{l, r})
		s.tr.do(rBetween, func() {
			var m bitstr.BitString
			if m, err = cdbs.Between(l, r); err == nil {
				m, err = cdbs.Between(m, r)
			}
			sink += m.Len()
		})
		if err != nil {
			return 0, 0, err
		}
	}
	s.tr.do(rSchemeInsert, func() { id, relabeled, err = d.lab.InsertChildAt(parent, pos) })
	if err != nil {
		return 0, 0, err
	}
	for id >= len(d.names) {
		d.names = append(d.names, "")
	}
	d.names[id] = insertName
	err = d.idx.Add(insertName, id)
	d.gen++
	return id, relabeled, err
}

func (s *compositeStack) remove(doc, id int) (err error) {
	d := s.docs[doc]
	doomed := map[int]bool{}
	var collect func(v int)
	collect = func(v int) {
		doomed[v] = true
		for _, c := range d.lab.Tree().Children[v] {
			collect(c)
		}
	}
	collect(id)
	if err = d.idx.Remove(doomed, d.nameOf); err != nil {
		return err
	}
	s.tr.do(rSchemeDelete, func() { _, err = d.lab.DeleteSubtree(id) })
	d.gen++
	return err
}

func (s *compositeStack) query(doc int, q *querySpec) (ids []int, err error) {
	d := s.docs[doc]
	e := xpath.NewEngineWithIndex(d.lab, d.names, d.idx)
	switch s.mode {
	case modePlan:
		// Compiling a plan and running it, then running it alone: the
		// result cache keeps compiled plans, so a miss pays only the run.
		var p *plan.Plan
		s.tr.do(rPlanEval, func() {
			p = plan.For(e, q.parsed)
			ids, err = p.Eval(e)
		})
		if err == nil {
			s.tr.do(rPlanRun, func() { ids, err = p.Eval(e) })
		}
	case modeCache:
		s.tr.do(rCacheEval, func() { ids, err = d.cache.Eval(e, d.gen, q.parsed) })
		if err == nil {
			s.tr.do(rCacheHit, func() { ids, err = d.cache.Eval(e, d.gen, q.parsed) })
		}
	default:
		s.tr.do(rEngineEval, func() { ids, err = e.Eval(q.parsed) })
	}
	return ids, err
}

func (s *compositeStack) close() error {
	var err error
	for _, d := range s.docs {
		if d.idx == nil {
			continue
		}
		if cerr := d.idx.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
