// Package dynxml is a Go implementation of the CDBS (Compact Dynamic
// Binary String) encoding and the surrounding dynamic XML labeling
// machinery from Li, Ling and Hu, "Efficient Processing of Updates in
// Dynamic XML Data" (ICDE 2006).
//
// The package offers three layers:
//
//   - Dynamic order codes: CDBS binary strings (Between, Encode) and
//     QED quaternary codes, which let you insert a new key between any
//     two existing keys without touching them — the paper's core
//     contribution, reusable for any order-maintenance problem
//     (ranked lists, fractional indexing, …).
//   - Labeled XML documents: Open parses or accepts a document and
//     labels it with any of the paper's thirteen schemes (containment,
//     prefix and prime families). The returned Handle inserts and
//     deletes elements (Handle.InsertElement, InsertTree,
//     DeleteSubtree); dynamic schemes never re-label a node.
//   - Queries: Handle.QueryString and Count evaluate an XPath fragment
//     whose structural joins run on the labeling's predicates, through
//     a planner and a result cache that keeps an answer across every
//     edit that does not touch a name the query reads.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured evaluation results.
package dynxml

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/dyndoc"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/qed"
	"repro/internal/registry"
	"repro/internal/scheme"
	"repro/internal/store"
	"repro/internal/symtab"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpath/plan"
)

// ---------------------------------------------------------------------------
// CDBS codes

// Code is a CDBS code: a binary string ending in 1, ordered
// lexicographically.
type Code = bitstr.BitString

// EmptyCode is the empty code, used as an open bound for Between.
var EmptyCode = bitstr.Empty

// ParseCode parses a textual binary string such as "0011".
func ParseCode(s string) (Code, error) { return bitstr.Parse(s) }

// Between returns a code strictly between l and r (Algorithm 1 of the
// paper). Either bound may be EmptyCode, meaning open.
func Between(l, r Code) (Code, error) { return cdbs.Between(l, r) }

// TwoBetween returns two ordered codes strictly between l and r
// (Corollary 3.3).
func TwoBetween(l, r Code) (m1, m2 Code, err error) { return cdbs.TwoBetween(l, r) }

// Encode returns the compact initial V-CDBS codes for 1..n
// (Algorithm 2).
func Encode(n int) ([]Code, error) { return cdbs.Encode(n) }

// EncodeFixed returns the F-CDBS codes for 1..n and their fixed width.
func EncodeFixed(n int) ([]Code, int, error) { return cdbs.EncodeFixed(n) }

// Position computes the 1-based ordinal of an initial code by
// inverting Algorithm 2 (Section 5.1).
func Position(code Code, n int) (int, error) { return cdbs.Position(code, n) }

// OrderList is an order-maintenance list of CDBS codes: insert at any
// position forever, with overflow handled per policy.
type OrderList = cdbs.List

// Storage variants and overflow policies for NewOrderList.
const (
	VCDBS = cdbs.VCDBS
	FCDBS = cdbs.FCDBS

	WidenOnOverflow   = cdbs.Widen
	RelabelOnOverflow = cdbs.Relabel
	// LocalRelabelOnOverflow flattens only the hot region — the
	// repository's answer to the paper's skewed-insertion future work.
	LocalRelabelOnOverflow = cdbs.LocalRelabel
)

// NewOrderList builds an order list over the initial encoding of n
// items with the Widen overflow policy.
func NewOrderList(n int, v cdbs.Variant) (*OrderList, error) { return cdbs.NewList(n, v) }

// NewOrderListPolicy builds an order list with an explicit overflow
// policy.
func NewOrderListPolicy(n int, v cdbs.Variant, p cdbs.OverflowPolicy) (*OrderList, error) {
	return cdbs.NewListPolicy(n, v, p)
}

// ---------------------------------------------------------------------------
// QED codes

// QEDCode is a quaternary QED code (digits 1–3, "0" reserved as
// separator), the overflow-free encoding of Section 6.
type QEDCode = qed.Code

// ParseQED parses a textual quaternary code such as "132".
func ParseQED(s string) (QEDCode, error) { return qed.Parse(s) }

// QEDBetween returns a QED code strictly between l and r; it never
// fails on valid ordered input.
func QEDBetween(l, r QEDCode) (QEDCode, error) { return qed.Between(l, r) }

// QEDEncode returns compact initial QED codes for 1..n.
func QEDEncode(n int) ([]QEDCode, error) { return qed.Encode(n) }

// ---------------------------------------------------------------------------
// Documents and labelings

// Document is an ordered XML document tree.
type Document = xmltree.Document

// Node is one document node.
type Node = xmltree.Node

// ParseXMLString parses an XML document from a string.
func ParseXMLString(s string) (*Document, error) { return xmltree.ParseString(s) }

// Labeling is a labeled document: relationship predicates answered
// from labels, plus re-label-free insertion where the scheme allows.
type Labeling = scheme.Labeling

// Schemes lists every available labeling scheme name, e.g.
// "V-CDBS-Containment", "QED-Prefix", "Prime".
func Schemes() []string { return registry.Names() }

// ErrUnknownScheme matches, via errors.Is, every error a scheme-name
// lookup produces. The error text carries a did-you-mean suggestion
// for near-miss names.
var ErrUnknownScheme = registry.ErrUnknownScheme

// ---------------------------------------------------------------------------
// Queries

// Query is a parsed path expression over the supported XPath fragment
// (child, descendant, preceding-sibling and following axes; name and *
// tests; positional and relative-path predicates).
type Query = xpath.Query

// ParseQuery parses a path expression such as
// "/play//personae[./title]/pgroup[.//grpdescr]/persona".
func ParseQuery(s string) (*Query, error) { return xpath.Parse(s) }

// ---------------------------------------------------------------------------
// Live documents: the Open API

// LiveDocument binds a document, a labeling and a query index into one
// editable, queryable unit: insert and delete elements while running
// path queries, with the dynamic schemes never re-labeling a node.
type LiveDocument = dyndoc.Document

// SharedDocument is a LiveDocument for concurrent use: queries are
// lock-free over copy-on-write snapshots, so no reader ever blocks
// behind a writer, and every reader sees only complete batches.
type SharedDocument = dyndoc.Concurrent

// Batch edit types, re-exported from the document layer: an Edit is
// one operation of Handle.ApplyBatch, an EditResult what it did.
type (
	Edit       = dyndoc.Edit
	EditResult = dyndoc.EditResult
)

// Batch edit operations.
const (
	OpInsertElement = dyndoc.OpInsertElement
	OpInsertTree    = dyndoc.OpInsertTree
	OpDeleteSubtree = dyndoc.OpDeleteSubtree
)

// DefaultScheme is the labeling scheme Open uses when WithScheme is
// not given: the paper's headline compact dynamic scheme.
const DefaultScheme = "V-CDBS-Containment"

// config collects Open's options.
type config struct {
	scheme     string
	concurrent bool
	journalDir string
	durability *Durability
	recover    bool
	followURL  string
	followDir  string
	pagedDir   string
	pageCache  int
}

// storeFactory returns the index-backend factory the options select:
// nil (the in-memory slice backend) without WithPagedLabels, otherwise
// a factory opening the paged backend in the configured directory.
func (c *config) storeFactory() dyndoc.StoreFactory {
	if c.pagedDir == "" {
		return nil
	}
	dir, cache := c.pagedDir, c.pageCache
	return func(b store.Binding) (store.Backend, error) {
		return store.OpenPaged(dir, cache, b)
	}
}

// Option configures Open.
type Option func(*config)

// WithScheme selects the labeling scheme by its registry name (see
// Schemes). Unknown names make Open fail with an error matching
// ErrUnknownScheme.
func WithScheme(name string) Option { return func(c *config) { c.scheme = name } }

// WithConcurrent opens the document for shared use: lock-free
// snapshot queries and serialized copy-on-write edits (the Shared
// accessor exposes the full concurrent API).
func WithConcurrent() Option { return func(c *config) { c.concurrent = true } }

// Durability selects when a journaled handle forces edits to stable
// storage: Always, Interval(d) or None. See the package README's
// durability table for the loss window each mode accepts.
type Durability struct {
	mode     journal.Mode
	interval time.Duration
}

// Durability modes for WithDurability.
var (
	// Always fsyncs before an edit call returns; concurrent writers
	// share fsyncs via group commit. Acknowledged edits survive power
	// loss.
	Always = Durability{mode: journal.SyncAlways}
	// None never fsyncs on the edit path (Close still does); a crash
	// loses whatever the OS had not written back.
	None = Durability{mode: journal.SyncNone}
)

// Interval acknowledges edits immediately and fsyncs on a timer: a
// crash loses at most the last d of acknowledged edits.
func Interval(d time.Duration) Durability {
	return Durability{mode: journal.SyncInterval, interval: d}
}

// String names the durability mode.
func (d Durability) String() string {
	if d.mode == journal.SyncInterval {
		return fmt.Sprintf("interval(%s)", d.interval)
	}
	return d.mode.String()
}

// WithJournal makes the document durable: every edit batch is
// appended to a write-ahead journal in dir before its call returns
// (see WithDurability for how hard that guarantee is). A journaled
// handle is always concurrent. When dir already holds a journal, Open
// replays it instead of parsing src — pass nil src for that case —
// and the scheme recorded in the journal wins over WithScheme.
func WithJournal(dir string) Option { return func(c *config) { c.journalDir = dir } }

// WithDurability selects the journal's sync mode (default Always).
// It requires WithJournal.
func WithDurability(d Durability) Option { return func(c *config) { c.durability = &d } }

// WithRecover permits Open to repair crash damage when replaying a
// journal: truncate a torn log tail, discard an incomplete checkpoint
// and drop stray segments. Without it a crashed journal fails with
// ErrRecoveryTruncated. Repair never drops an edit that was
// acknowledged under Always durability. It requires WithJournal.
func WithRecover() Option { return func(c *config) { c.recover = true } }

// WithPagedLabels moves an embedded handle's element index — the
// per-name id lists every query starts from, keyed by label — out of the
// Go heap into a checksummed page file under dir, so a document can be
// queried with only a bounded page cache resident (see WithPageCache).
// The page file is a scratch cache, not a store of record: it is
// unlinked as it is created, so nothing under dir survives the handle,
// and the index is rebuilt from the document on every Open. It does not
// combine with WithJournal, and OpenFollower does not take it: both
// refuse it before any directory is created. It requires a scheme whose
// labels have an order-preserving byte form: V-CDBS- (the default),
// F-CDBS- and QED-Containment have one; the other ten schemes — the
// Binary and Float-point containment schemes, every prefix scheme and
// Prime — make Open fail with ErrPagedUnsupported before dir is created
// or anything in it is touched.
func WithPagedLabels(dir string) Option { return func(c *config) { c.pagedDir = dir } }

// WithPageCache caps how many 4 KiB pages of the paged label index
// stay resident (default and floor pagestore.MinCachePages). It
// requires WithPagedLabels.
func WithPageCache(pages int) Option { return func(c *config) { c.pageCache = pages } }

// errPagedJournaled refuses the paging options on a handle that keeps a
// journal, its own or a follower's mirror: the paged index is a cache for
// embedded, unjournaled handles only.
var errPagedJournaled = errors.New("dynxml: WithPagedLabels/WithPageCache do not apply to a journaled or follower handle")

// paging reports whether either paging option was given.
func (c *config) paging() bool { return c.pagedDir != "" || c.pageCache != 0 }

// ErrPagedUnsupported matches, via errors.Is, the error Open returns
// when WithPagedLabels meets a labeling scheme whose labels have no
// order-preserving byte encoding.
var ErrPagedUnsupported = errors.New("dynxml: scheme has no order-preserving label bytes; WithPagedLabels needs one")

// pagedErr maps the storage layer's no-ordered-bytes sentinel onto the
// public ErrPagedUnsupported.
func pagedErr(err error) error {
	if errors.Is(err, store.ErrNoOrderedKeys) {
		return fmt.Errorf("%w: %v", ErrPagedUnsupported, err)
	}
	return err
}

// ErrLabelTooLong matches, via errors.Is, the error an insert into a
// WithPagedLabels handle returns when the new node's label would be
// longer than the paged label index can key (HandleStats.Storage.MaxLabel
// bytes; HandleStats.LongestLabel says how close the document is).
// Nothing was changed: the document answers and serialises as before,
// and an insert into a wider gap still succeeds.
var ErrLabelTooLong = scheme.ErrLabelTooLong

// ErrBadNodeName matches, via errors.Is, the error Open, an insert or a
// batch returns for an element or attribute name that a checkpoint
// could not bring back: one that is not an XML Name, or that holds a
// colon ("p:q" would come back as "q"). Nothing was changed or
// journaled.
var ErrBadNodeName = symtab.ErrBadName

// ErrClosed reports a call on a closed Handle, matching errors.Is.
var ErrClosed = errors.New("dynxml: handle is closed")

// ErrRecoveryTruncated matches, via errors.Is, the error Open returns
// when a journal bears crash damage and WithRecover was not given.
var ErrRecoveryTruncated = journal.ErrRecoveryTruncated

// ErrRecordTooLarge matches, via errors.Is, the error a journaled
// handle returns when one journal record would exceed 16 MiB: an edit
// batch that encodes past it (the edit is not applied), a Checkpoint of
// a document that has grown past it (the journal keeps the previous
// checkpoint), or an Open WithJournal of such a document (no journal
// is created).
var ErrRecordTooLarge = journal.ErrRecordTooLarge

// Handle is an opened document: one labeled, queryable, editable XML
// tree. A concurrent handle (WithConcurrent) routes every call
// through snapshot isolation; a plain handle edits in place with no
// synchronization, like a LiveDocument. A journaled handle
// (WithJournal) is concurrent and appends every edit batch to its
// write-ahead journal before acknowledging it.
type Handle struct {
	schemeName string
	// doc is the document every forwarded call goes to: live or shared,
	// whichever Open chose. The typed fields are what Live, Shared and
	// the two helpers that need a *LiveDocument (view, locked) read.
	doc      document
	live     *dyndoc.Document
	shared   *dyndoc.Concurrent
	jnl      *journal.Journal
	follower *journal.Follower // set on OpenFollower handles; edits get ErrReadOnly

	// Lifecycle: every error-returning method runs between acquire and
	// release, so Close can drain the calls already past their closed
	// check before it closes the journal underneath them. Without the
	// refcount a request that passed the old atomic check() raced
	// Close into a closed journal (catalog eviction hits this under
	// real HTTP traffic).
	mu       sync.Mutex
	drained  *sync.Cond // signalled when inflight reaches 0 while closed
	inflight int        // vet:guardedby mu // calls between acquire and release
	closed   bool       // vet:guardedby mu // Close has begun; new calls get ErrClosed
}

// document is the method set *dyndoc.Document and *dyndoc.Concurrent
// share signature for signature — everything a Handle forwards.
type document interface {
	Len() int
	Relabeled() int64
	Name(id int) (string, error)
	XML() string
	Query(q *Query) ([]int, error)
	QueryString(path string) ([]int, error)
	Count(path string) (int, error)
	QueryRendered(path string, r plan.Rendering) ([]byte, error)
	Explain(path string) (*plan.Report, error)
	InsertElement(parent, pos int, name string) (int, int, error)
	InsertTree(parent, pos int, fragment *Node) ([]int, int, error)
	InsertTreeBatch(parent, pos int, fragments []*Node) ([][]int, int, error)
	DeleteSubtree(id int) (int, error)
	ApplyBatch(edits []Edit) ([]EditResult, error)
}

// newHandle returns a Handle with its lifecycle machinery wired.
func newHandle() *Handle {
	h := &Handle{}
	h.drained = sync.NewCond(&h.mu)
	return h
}

// Open parses or wraps an XML document and labels it. src may be a
// *Document (wrapped in place), a string or []byte of XML text, or an
// io.Reader streaming XML text. Options select the scheme
// (WithScheme), concurrent snapshot mode (WithConcurrent) and durable
// journaling (WithJournal, WithDurability, WithRecover). With
// WithJournal and an existing journal, src must be nil: the document is
// rebuilt from the journal, not parsed.
func Open(src any, opts ...Option) (*Handle, error) {
	cfg := config{scheme: DefaultScheme}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.followURL != "" || cfg.followDir != "" {
		return nil, errors.New("dynxml: WithFollowURL/WithFollowDir require OpenFollower")
	}
	if cfg.journalDir != "" && cfg.paging() {
		return nil, errPagedJournaled
	}
	if cfg.pageCache != 0 && cfg.pagedDir == "" {
		return nil, errors.New("dynxml: WithPageCache requires WithPagedLabels")
	}
	if cfg.journalDir == "" {
		if cfg.durability != nil {
			return nil, errors.New("dynxml: WithDurability requires WithJournal")
		}
		if cfg.recover {
			return nil, errors.New("dynxml: WithRecover requires WithJournal")
		}
	} else {
		return openJournaled(src, cfg)
	}
	entry, err := registry.Lookup(cfg.scheme)
	if err != nil {
		return nil, err
	}
	doc, err := docFrom(src)
	if err != nil {
		return nil, err
	}
	h := newHandle()
	h.schemeName = entry.Name
	d, err := dyndoc.NewWithStore(doc, entry.Live, cfg.storeFactory())
	if err != nil {
		return nil, pagedErr(err)
	}
	if cfg.concurrent {
		h.shared, err = dyndoc.NewConcurrentFrom(d)
		if err != nil {
			return nil, err
		}
		h.doc = h.shared
	} else {
		h.live, h.doc = d, d
	}
	return h, nil
}

// openJournaled is Open's WithJournal path: create a fresh journal
// from src, or — when the directory already holds one — replay it.
// Either way the handle comes back concurrent, with the journal's
// Append installed as the document's commit hook so snapshot
// publication and journal append are acknowledged together.
func openJournaled(src any, cfg config) (*Handle, error) {
	jcfg := journal.Config{
		Dir:     cfg.journalDir,
		Scheme:  cfg.scheme,
		Mode:    journal.SyncAlways,
		Recover: cfg.recover,
	}
	if cfg.durability != nil {
		jcfg.Mode = cfg.durability.mode
		jcfg.Interval = cfg.durability.interval
	}
	exists, err := journal.Exists(cfg.journalDir)
	if err != nil {
		return nil, err
	}
	h := newHandle()
	var d *dyndoc.Document
	if exists {
		if src != nil {
			return nil, fmt.Errorf("dynxml: %s already holds a journal; pass nil src to replay it", cfg.journalDir)
		}
		var info journal.ReplayInfo
		h.jnl, d, info, err = journal.Replay(jcfg)
		if err != nil {
			return nil, err
		}
		h.schemeName = info.Scheme
	} else {
		entry, err := registry.Lookup(cfg.scheme)
		if err != nil {
			return nil, err
		}
		jcfg.Scheme = entry.Name
		doc, err := docFrom(src)
		if err != nil {
			return nil, err
		}
		d, err = dyndoc.New(doc, entry.Live)
		if err != nil {
			return nil, err
		}
		h.jnl, err = journal.Create(jcfg, d)
		if err != nil {
			return nil, err
		}
		h.schemeName = entry.Name
	}
	h.shared, err = dyndoc.NewConcurrentFrom(d)
	if err != nil {
		_ = h.jnl.Close()
		return nil, err
	}
	h.doc = h.shared
	h.shared.SetCommitHook(h.jnl.Append)
	return h, nil
}

// docFrom turns any supported source value into a parsed document.
func docFrom(src any) (*Document, error) {
	defer dyndoc.ObserveOpenParse(time.Now())
	switch s := src.(type) {
	case *Document:
		if s == nil {
			return nil, fmt.Errorf("dynxml: Open got a nil *Document")
		}
		return s, nil
	case string:
		return xmltree.ParseString(s)
	case []byte:
		return xmltree.ParseString(string(s))
	case io.Reader:
		return xmltree.Parse(s)
	default:
		return nil, fmt.Errorf("dynxml: Open cannot read a %T (want *Document, string, []byte or io.Reader)", src)
	}
}

// acquire registers one in-flight call. It fails with ErrClosed once
// Close has begun, and a successful acquire holds Close's drain open
// until the matching release — the call can rely on the journal
// staying open for its whole duration.
func (h *Handle) acquire() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	h.inflight++
	return nil
}

// acquireWrite is acquire plus the replica guard: every mutating entry
// point runs through it, so a follower handle rejects writes with
// ErrReadOnly before touching the document.
func (h *Handle) acquireWrite() error {
	if err := h.acquire(); err != nil {
		return err
	}
	if h.follower != nil {
		h.release()
		return ErrReadOnly
	}
	return nil
}

// release retires one in-flight call and wakes a draining Close when
// it was the last.
func (h *Handle) release() {
	h.mu.Lock()
	h.inflight--
	if h.closed && h.inflight == 0 {
		h.drained.Broadcast()
	}
	h.mu.Unlock()
}

// Scheme returns the registry name of the handle's labeling scheme.
func (h *Handle) Scheme() string { return h.schemeName }

// Journaled reports whether the handle writes a journal.
func (h *Handle) Journaled() bool { return h.jnl != nil }

// Concurrent reports whether the handle was opened with
// WithConcurrent.
func (h *Handle) Concurrent() bool { return h.Shared() != nil }

// Live returns the underlying in-place document, or nil on a
// concurrent handle (whose document is only reachable through
// snapshots — use Shared).
func (h *Handle) Live() *LiveDocument { return h.live }

// Shared returns the underlying shared document, or nil when the
// handle was opened without WithConcurrent.
func (h *Handle) Shared() *SharedDocument { return h.shared }

// Labeling returns the document's labeling. On a concurrent handle it
// is the latest snapshot's labeling: immutable, safe to read, and
// left behind by the next edit. Read its tree's child lists through
// Tree().Kids and Tree().Child: an opened document's tree keeps them
// in an id arena, without the Tree().Children mirror.
func (h *Handle) Labeling() Labeling {
	var lab Labeling
	h.view(func(d *LiveDocument) { lab = d.Labeling() })
	return lab
}

// view runs fn on a document that stays as it is while fn reads it:
// the latest snapshot of a concurrent handle, the document itself
// otherwise.
func (h *Handle) view(fn func(d *LiveDocument)) {
	if h.shared == nil {
		fn(h.live)
		return
	}
	_ = h.shared.Snapshot(func(d *LiveDocument) error {
		fn(d)
		return nil
	})
}

// locked runs fn on the handle's current document with writers
// excluded (a plain handle has no concurrent writers to exclude).
func (h *Handle) locked(fn func(d *LiveDocument) error) error {
	if h.shared == nil {
		return fn(h.live)
	}
	return h.shared.Locked(fn)
}

// Len returns the live node count.
func (h *Handle) Len() int { return h.doc.Len() }

// MemoryFootprint estimates the handle's resident bytes: every per-id
// column and the label arena at the capacity it has allocated (a
// deleted node keeps its slots), what the index backend holds — for an
// embedded handle's paged backend its bounded page cache rather than the
// whole index — and the query cache.
// The catalog's memory budget charges this estimate
// (TestMemoryFootprintTracksHeap holds it within 1.5x of the heap).
func (h *Handle) MemoryFootprint() int64 {
	var fp int64
	h.view(func(d *LiveDocument) { fp = d.MemoryFootprint() })
	return fp
}

// Relabeled returns the cumulative count of existing nodes whose
// labels updates have rewritten.
func (h *Handle) Relabeled() int64 { return h.doc.Relabeled() }

// Name returns the element name of a live node id.
func (h *Handle) Name(id int) (string, error) {
	if err := h.acquire(); err != nil {
		return "", err
	}
	defer h.release()
	return h.doc.Name(id)
}

// XML serialises the current document.
func (h *Handle) XML() string { return h.doc.XML() }

// Query evaluates a parsed path expression through the planner and the
// result cache, which keeps an answer until an edit inserts or deletes
// an element the query reads; on a concurrent handle the evaluation is
// lock-free against the latest snapshot. The ids are the cached answer,
// shared and read-only, and stay valid across later edits: call
// slices.Clone to own them.
func (h *Handle) Query(q *Query) ([]int, error) {
	if err := h.acquire(); err != nil {
		return nil, err
	}
	defer h.release()
	return h.doc.Query(q)
}

// QueryString parses and evaluates a path expression; a result-cache
// hit parses, copies and allocates nothing. The ids are shared and
// read-only, as Query's are: call slices.Clone to own them.
func (h *Handle) QueryString(path string) ([]int, error) {
	if err := h.acquire(); err != nil {
		return nil, err
	}
	defer h.release()
	return h.doc.QueryString(path)
}

// Count returns the number of matches for a path expression.
func (h *Handle) Count(path string) (int, error) {
	if err := h.acquire(); err != nil {
		return 0, err
	}
	defer h.release()
	return h.doc.Count(path)
}

// QueryRendered is r.Render(ids) for the ids QueryString returns,
// memoised with the cached result: while that stays valid a repeated
// query returns the same bytes, shared and read-only. An answer only
// ever served is kept as those bytes alone, and QueryString parses its
// ids from them with r.Parse. Pass one rendering per handle.
func (h *Handle) QueryRendered(path string, r plan.Rendering) ([]byte, error) {
	if err := h.acquire(); err != nil {
		return nil, err
	}
	defer h.release()
	return h.doc.QueryRendered(path, r)
}

// Explain plans and evaluates a path expression with instrumentation
// and returns the rendered EXPLAIN tree: the chosen strategy and
// anchor step, estimated vs. measured cardinality per step, whether
// the result cache held the answer (on a concurrent handle, at which
// snapshot generation) and the element names the answer depends on.
// The query is evaluated for real, so the report's numbers are
// measurements, not guesses.
func (h *Handle) Explain(path string) (string, error) {
	if err := h.acquire(); err != nil {
		return "", err
	}
	defer h.release()
	rep, err := h.doc.Explain(path)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// InsertElement inserts a fresh element as the pos-th child of parent
// and returns its id and the re-label count.
func (h *Handle) InsertElement(parent, pos int, name string) (int, int, error) {
	if err := h.acquireWrite(); err != nil {
		return 0, 0, err
	}
	defer h.release()
	return h.doc.InsertElement(parent, pos, name)
}

// InsertTree inserts a deep copy of fragment as the pos-th child of
// parent and returns the new ids in preorder plus the re-label count.
func (h *Handle) InsertTree(parent, pos int, fragment *Node) ([]int, int, error) {
	if err := h.acquireWrite(); err != nil {
		return nil, 0, err
	}
	defer h.release()
	return h.doc.InsertTree(parent, pos, fragment)
}

// InsertTreeBatch inserts the fragments as consecutive children of
// parent in one bulk operation: the label write path runs once for
// the whole run, and on a concurrent handle a single snapshot is
// published for the batch.
func (h *Handle) InsertTreeBatch(parent, pos int, fragments []*Node) ([][]int, int, error) {
	if err := h.acquireWrite(); err != nil {
		return nil, 0, err
	}
	defer h.release()
	return h.doc.InsertTreeBatch(parent, pos, fragments)
}

// DeleteSubtree removes the node and its descendants, returning how
// many nodes were removed.
func (h *Handle) DeleteSubtree(id int) (int, error) {
	if err := h.acquireWrite(); err != nil {
		return 0, err
	}
	defer h.release()
	return h.doc.DeleteSubtree(id)
}

// ApplyBatch applies the edits in order and returns one result per
// completed edit. On a concurrent handle the batch is applied on a
// private copy and published atomically, so readers never see a torn
// batch; a caller who wants smaller publish units calls ApplyBatch per
// chunk. On a plain handle edits apply in place and an error leaves
// the already-applied prefix behind (its results are returned with the
// error).
func (h *Handle) ApplyBatch(edits []Edit) ([]EditResult, error) {
	if err := h.acquireWrite(); err != nil {
		return nil, err
	}
	defer h.release()
	return h.doc.ApplyBatch(edits)
}

// Sync blocks until every edit acknowledged so far is on stable
// storage. On an unjournaled handle it is a no-op. Use it to get an
// Always-grade durability point under Interval or None durability. On
// a follower it instead runs one explicit catch-up poll against the
// leader, returning its error (transient transport failures included).
func (h *Handle) Sync() error {
	if err := h.acquire(); err != nil {
		return err
	}
	defer h.release()
	if h.follower != nil {
		return h.follower.Poll()
	}
	if h.jnl == nil {
		return nil
	}
	return h.jnl.Sync()
}

// Checkpoint persists the current document state as a fresh journal
// checkpoint and truncates the replayed log prefix, bounding recovery
// time and disk use. Edits issued concurrently simply land in the new
// log. On an unjournaled handle it only reports the error a degraded
// read of a paged label index recorded, if any; a slice index has none.
func (h *Handle) Checkpoint() error {
	if err := h.acquireWrite(); err != nil {
		return err
	}
	defer h.release()
	return h.locked(func(d *LiveDocument) error {
		if h.jnl == nil {
			return d.Store().Err()
		}
		return h.jnl.Checkpoint(d)
	})
}

// Close releases the handle. It first drains: new calls fail with
// ErrClosed immediately, and Close blocks until every call already in
// flight has returned, so no request that passed its closed check can
// reach a closing journal (the race catalog eviction used to hit
// under HTTP traffic). It ends every watch: their channels close. On a
// journaled handle it then makes every acknowledged edit durable
// (regardless of mode) and closes the journal files. Close is
// idempotent: second and later calls return nil without waiting for the
// first's drain.
func (h *Handle) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	for h.inflight > 0 {
		h.drained.Wait()
	}
	h.mu.Unlock()
	if h.shared != nil {
		h.shared.EndWatches()
	}
	if h.follower != nil {
		return h.follower.Close()
	}
	err := h.closeStore()
	if h.jnl != nil {
		if jerr := h.jnl.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// closeStore closes the index backend of the handle's current document,
// reporting the error a degraded read of it recorded. For the in-memory
// slice backend both are no-ops; the paged backend releases its page
// file (snapshots still referencing it will fail cleanly, but Close has
// already drained every in-flight call).
func (h *Handle) closeStore() error {
	return h.locked(func(d *LiveDocument) error {
		st := d.Store()
		err := st.Err()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// HandleStats is a point-in-time snapshot of a handle's state,
// including its journal when one is attached.
type HandleStats struct {
	// Scheme is the labeling scheme's registry name.
	Scheme string
	// Nodes is the live node count (elements and text).
	Nodes int
	// Relabeled is the cumulative count of existing nodes whose labels
	// updates have rewritten — zero forever under the dynamic schemes.
	Relabeled int64
	// LongestLabel is the length in bytes of the longest ordered label
	// the document has assigned (zero under a scheme without ordered
	// labels). On a WithPagedLabels handle inserts are refused with
	// ErrLabelTooLong once the next one would pass Storage.MaxLabel;
	// every other handle indexes labels of any length.
	LongestLabel int
	// EscapedKeys counts the live label keys too long for their 32-bit
	// ref, held in the label arena instead (containment schemes only).
	EscapedKeys int
	// Journaled reports whether the handle writes a journal; Journal
	// is only meaningful when it is set.
	Journaled bool
	// Journal carries the journal's counters: batches appended and
	// durable, current segment generation, checkpoints taken, mode.
	Journal journal.Stats
	// Following reports whether the handle is a read-only replica;
	// Replica is only meaningful when it is set.
	Following bool
	// Replica carries the follower's counters: applied sequence,
	// durable horizon, leader horizon, resets, last error.
	Replica journal.FollowerStats
	// Storage describes the element-index backend: which one
	// ("slice", or "paged" on a WithPagedLabels handle), its entry
	// count, and — for the paged backend — its label limit, the page
	// cache's resident/allocated pages and hit/miss/writeback counters.
	Storage StorageStats
}

// StorageStats is the element-index backend's self-description,
// surfaced in HandleStats and on the /v1 stats endpoint.
type StorageStats = store.Stats

// Stats returns a snapshot of the handle's state. It stays callable
// on a closed handle.
func (h *Handle) Stats() HandleStats {
	s := HandleStats{Scheme: h.schemeName, Nodes: h.doc.Len(), Relabeled: h.doc.Relabeled()}
	h.view(func(d *LiveDocument) {
		s.Storage, s.LongestLabel = d.Store().Stats(), d.LongestLabel()
		if e, ok := d.Labeling().(interface{ EscapedKeys() int }); ok {
			s.EscapedKeys = e.EscapedKeys()
		}
	})
	if h.jnl != nil {
		s.Journaled = true
		s.Journal = h.jnl.Stats()
	}
	if h.follower != nil {
		s.Following = true
		s.Replica = h.follower.Stats()
	}
	return s
}

// ---------------------------------------------------------------------------
// Metrics

// MetricsJSON returns a read-only JSON snapshot of the process-wide
// metrics registry: label sizes, re-label bursts, batch sizes,
// snapshot swaps, reader staleness and the rest of the instrumented
// counters and histograms.
func MetricsJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := metrics.Default.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
