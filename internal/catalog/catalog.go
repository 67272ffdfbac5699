// Package catalog maps document names to journal directories and
// lazily opens, pins and evicts dynxml Handles under a configurable
// memory budget — the residency layer between the HTTP surface
// (internal/web) and the durable document API (dynxml.Open).
//
// Every document lives as one journal directory under the catalog
// root; the directory is the document's entire persistent state.
// Acquire opens a document on first use by replaying its journal and
// keeps the handle resident for later requests. When the resident set
// exceeds the budget — by estimated bytes or by handle count — the
// least-recently-used unpinned handle is checkpointed and closed in
// the background. Eviction is invisible to clients: the checkpoint
// bounds the next replay, the drain in Handle.Close lets in-flight
// calls finish, and the next Acquire simply replays the journal back
// into memory.
package catalog

import (
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dynxml "repro"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Catalog residency metrics, served at /debug/vars by internal/web.
var (
	mAcquires    = metrics.Default.Counter("catalog_acquires_total")
	mOpens       = metrics.Default.Counter("catalog_opens_total")
	mReplays     = metrics.Default.Counter("catalog_replays_total")
	mCreates     = metrics.Default.Counter("catalog_creates_total")
	mEvictions   = metrics.Default.Counter("catalog_evictions_total")
	mEvictErrors = metrics.Default.Counter("catalog_evict_errors_total")
	mOpenDocs    = metrics.Default.Gauge("catalog_open_docs")
	mResident    = metrics.Default.Gauge("catalog_resident_bytes")
	mOpenSeconds = metrics.Default.Histogram("catalog_open_seconds", nil)
)

// Residency defaults for a zero Config.
const (
	DefaultMaxOpen   = 64
	DefaultMemBudget = 1 << 30 // 1 GiB of estimated resident bytes
)

// Typed errors, matched by the HTTP layer via errors.Is.
var (
	// ErrNotFound reports a name with no journal under the catalog
	// root.
	ErrNotFound = errors.New("catalog: document not found")
	// ErrExists reports a Create for a name that already has a journal.
	ErrExists = errors.New("catalog: document already exists")
	// ErrBadName reports a document name the catalog refuses to map to
	// a directory.
	ErrBadName = errors.New("catalog: invalid document name")
	// ErrCatalogClosed reports a call on a closed catalog.
	ErrCatalogClosed = errors.New("catalog: closed")
)

// Config parameterizes Open.
type Config struct {
	// Root is the directory holding one journal directory per
	// document. It is created if missing. Required.
	Root string
	// Scheme is the labeling scheme for documents Create builds
	// (default dynxml.DefaultScheme). Existing documents replay under
	// their journal's recorded scheme regardless.
	Scheme string
	// Durability selects the journal sync mode for every handle the
	// catalog opens (zero value: Always).
	Durability dynxml.Durability
	// MaxOpen bounds how many handles stay resident at once (0:
	// DefaultMaxOpen).
	MaxOpen int
	// MemBudget bounds the estimated resident bytes across all open
	// handles (0: DefaultMemBudget). The budget is enforced by
	// background eviction, so a burst of pinned documents can exceed
	// it transiently; pinned handles are never evicted.
	MemBudget int64
	// FollowURL turns the whole catalog into a read-only replica of the
	// leader server at this base URL (e.g. "http://leader:8080"): every
	// document opens as a follower pulling ship chunks from the
	// leader's /v1/docs/{name}/journal endpoint into a mirror under
	// Root, Create fails with dynxml.ErrReadOnly, and a name unknown
	// locally is fetched from the leader on first Acquire.
	FollowURL string
	// PagedLabels opens every leader document with its element index on
	// paged storage (dynxml.WithPagedLabels) under <docdir>/pages, so a
	// document's budget charge is its bounded page cache rather than
	// its size. Followers ignore it. It requires a scheme with
	// order-preserving label bytes.
	PagedLabels bool
	// PageCache is the per-document page-cache size in 4 KiB pages when
	// PagedLabels is set (0: the pagestore minimum).
	PageCache int
}

// entry is one named document's residency state. An entry is in
// exactly one of three phases: opening (h == nil, ready open),
// resident (h != nil), or closing (closing set, gone open). Every
// field transition happens under Catalog.mu (a cross-struct guard,
// so it cannot carry vet:guardedby annotations); h is written once on
// open and is safe to read through a Pin, whose existence
// happens-after that write.
type entry struct {
	name     string
	h        *dynxml.Handle // Catalog.mu; immutable once published
	refs     int            // Catalog.mu; outstanding pins
	lastUse  uint64         // Catalog.mu; catalog clock at last release
	bytes    int64          // Catalog.mu; resident estimate charged to the budget
	closing  bool           // Catalog.mu; eviction in progress
	ready    chan struct{}  // closed when the open attempt finishes
	gone     chan struct{}  // closed when eviction has fully retired the entry
	evictErr error          // written once before gone closes
}

// Catalog is the named-document residency manager. All methods are
// safe for concurrent use.
type Catalog struct {
	cfg Config

	mu       sync.Mutex
	docs     map[string]*entry // vet:guardedby mu
	resident int64             // vet:guardedby mu // total estimated bytes of resident handles
	clock    uint64            // vet:guardedby mu // LRU tick, bumped per release
	closed   bool              // vet:guardedby mu
}

// Open validates cfg, creates the root directory if needed and
// returns an empty-resident catalog over it.
func Open(cfg Config) (*Catalog, error) {
	if cfg.Root == "" {
		return nil, errors.New("catalog: Config.Root is required")
	}
	if cfg.Scheme == "" {
		cfg.Scheme = dynxml.DefaultScheme
	}
	if cfg.MaxOpen <= 0 {
		cfg.MaxOpen = DefaultMaxOpen
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = DefaultMemBudget
	}
	if cfg.FollowURL != "" {
		if u, err := url.Parse(cfg.FollowURL); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("catalog: bad FollowURL %q", cfg.FollowURL)
		}
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: creating root: %w", err)
	}
	return &Catalog{cfg: cfg, docs: make(map[string]*entry)}, nil
}

// ValidName reports whether the catalog will map name to a journal
// directory: 1–128 bytes of letters, digits, '.', '_' or '-', not
// starting with a dot (which also excludes "." and "..").
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// dir returns the journal directory for a validated name.
func (c *Catalog) dir(name string) string { return filepath.Join(c.cfg.Root, name) }

// followJournalURL is the leader's journal endpoint for a document.
func (c *Catalog) followJournalURL(name string) string {
	return strings.TrimRight(c.cfg.FollowURL, "/") + "/v1/docs/" + name + "/journal"
}

// Pin is one acquired reference to a resident document. The handle
// stays resident — never evicted — until Release.
type Pin struct {
	c        *Catalog
	e        *entry
	released atomic.Bool
}

// Handle returns the pinned document handle.
func (p *Pin) Handle() *dynxml.Handle { return p.e.h }

// Release unpins the document, making it evictable again and
// refreshing its budget estimate. Release is idempotent.
func (p *Pin) Release() {
	if p.released.CompareAndSwap(false, true) {
		p.c.release(p.e)
	}
}

// Create builds a brand-new named document from src (any dynxml.Open
// source: XML text, []byte, io.Reader or *Document) under schemeName
// (empty: the catalog default) and returns it pinned. The name gains
// a journal directory; a name that already holds a journal fails with
// ErrExists.
func (c *Catalog) Create(name string, src any, schemeName string) (*Pin, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if c.cfg.FollowURL != "" {
		return nil, fmt.Errorf("%w: catalog follows %s; create on the leader", dynxml.ErrReadOnly, c.cfg.FollowURL)
	}
	if schemeName == "" {
		schemeName = c.cfg.Scheme
	}
	for {
		opening, pinned, wait, err := c.claim(name)
		if err != nil {
			return nil, err
		}
		if wait != nil {
			<-wait
			continue
		}
		if pinned != nil {
			c.release(pinned) // resident: it certainly exists
			return nil, fmt.Errorf("%w: %q", ErrExists, name)
		}
		exists, err := journal.Exists(c.dir(name))
		if err == nil && exists {
			err = fmt.Errorf("%w: %q", ErrExists, name)
		}
		if err != nil {
			c.abandon(opening)
			return nil, err
		}
		mCreates.Inc()
		return c.finishOpen(opening, src, schemeName)
	}
}

// Acquire pins the named document, lazily opening it from its journal
// directory when it is not resident. A name with no journal fails
// with ErrNotFound. Concurrent Acquires of one absent name share a
// single open; an Acquire racing an eviction waits for the eviction
// to finish and replays.
func (c *Catalog) Acquire(name string) (*Pin, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	mAcquires.Inc()
	for {
		opening, pinned, wait, err := c.claim(name)
		if err != nil {
			return nil, err
		}
		if wait != nil {
			<-wait
			continue
		}
		if pinned != nil {
			return &Pin{c: c, e: pinned}, nil
		}
		// A following catalog skips the local existence check: the first
		// Acquire of a name mirrors it from the leader, and a name the
		// leader does not serve fails the bootstrap fetch with
		// dynxml.ErrNotFound.
		if c.cfg.FollowURL == "" {
			exists, err := journal.Exists(c.dir(name))
			if err == nil && !exists {
				err = fmt.Errorf("%w: %q", ErrNotFound, name)
			}
			if err != nil {
				c.abandon(opening)
				return nil, err
			}
		}
		mReplays.Inc()
		return c.finishOpen(opening, nil, "")
	}
}

// claim resolves one step of the Acquire/Create state machine under
// the catalog mutex. It returns exactly one of: a fresh opening
// placeholder the caller must finish or abandon, a resident entry
// with one pin charged to the caller, or a channel to wait on before
// retrying (an open or eviction is in progress elsewhere).
func (c *Catalog) claim(name string) (opening, pinned *entry, wait <-chan struct{}, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, nil, ErrCatalogClosed
	}
	e := c.docs[name]
	if e == nil {
		e = &entry{name: name, ready: make(chan struct{})}
		c.docs[name] = e
		return e, nil, nil, nil
	}
	if e.closing {
		return nil, nil, e.gone, nil
	}
	if e.h == nil {
		return nil, nil, e.ready, nil
	}
	e.refs++
	return nil, e, nil, nil
}

// abandon retires an opening placeholder that will not be opened.
func (c *Catalog) abandon(e *entry) {
	c.mu.Lock()
	delete(c.docs, e.name)
	c.mu.Unlock()
	close(e.ready)
}

// finishOpen opens the journal for a claimed placeholder and
// publishes the handle, pinned once for the caller.
func (c *Catalog) finishOpen(e *entry, src any, schemeName string) (*Pin, error) {
	var h *dynxml.Handle
	var err error
	start := time.Now()
	if c.cfg.FollowURL != "" {
		h, err = dynxml.OpenFollower(nil,
			dynxml.WithFollowURL(c.followJournalURL(e.name)),
			dynxml.WithFollowDir(c.dir(e.name)))
	} else {
		opts := []dynxml.Option{
			dynxml.WithJournal(c.dir(e.name)),
			dynxml.WithDurability(c.cfg.Durability),
			// A serving catalog wants the document back: crash damage is
			// repaired (truncated to the last durable point) on open.
			dynxml.WithRecover(),
		}
		if schemeName != "" {
			opts = append(opts, dynxml.WithScheme(schemeName))
		}
		if c.cfg.PagedLabels {
			opts = append(opts, dynxml.WithPagedLabels(filepath.Join(c.dir(e.name), "pages")))
			if c.cfg.PageCache > 0 {
				opts = append(opts, dynxml.WithPageCache(c.cfg.PageCache))
			}
		}
		h, err = dynxml.Open(src, opts...)
	}
	mOpenSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		c.abandon(e)
		return nil, err
	}
	mOpens.Inc()
	c.mu.Lock()
	e.h = h
	e.refs = 1
	e.bytes = h.MemoryFootprint()
	c.resident += e.bytes
	c.clock++
	e.lastUse = c.clock
	mOpenDocs.Set(float64(c.residentCountLocked()))
	mResident.Set(float64(c.resident))
	victims := c.maybeEvictLocked()
	c.mu.Unlock()
	close(e.ready)
	for _, v := range victims {
		go c.retire(v)
	}
	return &Pin{c: c, e: e}, nil
}

// release retires one pin, refreshes the entry's budget estimate
// (edits grow documents while they are pinned) and enforces the
// budget.
func (c *Catalog) release(e *entry) {
	c.mu.Lock()
	e.refs--
	c.clock++
	e.lastUse = c.clock
	if e.h != nil {
		nb := e.h.MemoryFootprint()
		c.resident += nb - e.bytes
		e.bytes = nb
		mResident.Set(float64(c.resident))
	}
	victims := c.maybeEvictLocked()
	c.mu.Unlock()
	for _, v := range victims {
		go c.retire(v)
	}
}

// residentCountLocked counts fully open entries.
//
// vet:holds c.mu
func (c *Catalog) residentCountLocked() int {
	n := 0
	for _, e := range c.docs {
		if e.h != nil && !e.closing {
			n++
		}
	}
	return n
}

// maybeEvictLocked picks least-recently-used unpinned handles until
// the resident set fits the budget again (or nothing evictable
// remains — pinned and in-transition entries are left alone). Each
// returned victim has been transitioned to closing; the caller must
// retire every one after dropping the catalog mutex, so that the
// checkpoint+close never runs — or launches — with the mutex held.
//
// vet:holds c.mu
func (c *Catalog) maybeEvictLocked() []*entry {
	var victims []*entry
	for c.residentCountLocked() > c.cfg.MaxOpen || c.resident > c.cfg.MemBudget {
		var victim *entry
		for _, e := range c.docs {
			if e.h == nil || e.closing || e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		c.markClosingLocked(victim)
		victims = append(victims, victim)
	}
	return victims
}

// markClosingLocked transitions a resident entry to closing. Waiters
// blocked in claim reopen after gone closes; the caller must call
// retire exactly once after dropping the catalog mutex.
//
// vet:holds c.mu
func (c *Catalog) markClosingLocked(e *entry) {
	e.closing = true
	e.gone = make(chan struct{})
}

// retire finishes an eviction marked by markClosingLocked: checkpoint
// (bounding the next replay), close (draining in-flight calls), then
// removal from the resident set. Must be called without the catalog
// mutex — the checkpoint fsyncs.
func (c *Catalog) retire(e *entry) {
	err := e.h.Checkpoint()
	if errors.Is(err, dynxml.ErrReadOnly) {
		// Followers checkpoint by mirroring the leader's; eviction just
		// closes them.
		err = nil
	}
	if cerr := e.h.Close(); err == nil {
		err = cerr
	}
	mEvictions.Inc()
	if err != nil {
		mEvictErrors.Inc()
	}
	c.mu.Lock()
	e.evictErr = err
	c.resident -= e.bytes
	delete(c.docs, e.name)
	mOpenDocs.Set(float64(c.residentCountLocked()))
	mResident.Set(float64(c.resident))
	c.mu.Unlock()
	close(e.gone)
}

// Evict synchronously checkpoints and closes the named document if it
// is resident, waiting for the retirement to finish. Outstanding pins
// see ErrClosed on their next handle call; the journal keeps every
// acknowledged edit, so a later Acquire replays the full document. A
// non-resident name is a no-op.
func (c *Catalog) Evict(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	c.mu.Lock()
	e := c.docs[name]
	if e == nil {
		c.mu.Unlock()
		return nil
	}
	if e.h == nil && !e.closing {
		// Mid-open: wait for the opener, then retry.
		ready := e.ready
		c.mu.Unlock()
		<-ready
		return c.Evict(name)
	}
	mine := !e.closing
	if mine {
		c.markClosingLocked(e)
	}
	gone := e.gone
	c.mu.Unlock()
	if mine {
		c.retire(e)
	}
	<-gone
	c.mu.Lock()
	err := e.evictErr
	c.mu.Unlock()
	return err
}

// Names lists every document under the catalog root (resident or
// not), sorted.
func (c *Catalog) Names() ([]string, error) {
	ents, err := os.ReadDir(c.cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("catalog: listing root: %w", err)
	}
	var names []string
	for _, de := range ents {
		if de.IsDir() && ValidName(de.Name()) {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Resident reports whether the named document currently has an open
// handle.
func (c *Catalog) Resident(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.docs[name]
	return e != nil && e.h != nil && !e.closing
}

// Stats is a point-in-time residency summary.
type Stats struct {
	// ResidentDocs is the number of open handles.
	ResidentDocs int
	// ResidentBytes is the estimated bytes those handles pin in
	// memory (the sum of their Handle.MemoryFootprint).
	ResidentBytes int64
	// MemBudget and MaxOpen echo the effective configuration.
	MemBudget int64
	MaxOpen   int
}

// Stats returns the current residency summary.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		ResidentDocs:  c.residentCountLocked(),
		ResidentBytes: c.resident,
		MemBudget:     c.cfg.MemBudget,
		MaxOpen:       c.cfg.MaxOpen,
	}
}

// Close shuts the catalog down: no new acquires, every resident
// document checkpointed and closed (draining in-flight calls), first
// eviction error reported. The journal directories keep the full
// state for the next Open.
func (c *Catalog) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var waits []<-chan struct{}
	var entries []*entry
	var toRetire []*entry
	for _, e := range c.docs {
		switch {
		case e.closing:
			waits = append(waits, e.gone)
			entries = append(entries, e)
		case e.h != nil:
			c.markClosingLocked(e)
			toRetire = append(toRetire, e)
			waits = append(waits, e.gone)
			entries = append(entries, e)
		default:
			// Mid-open: the opener publishes then pins; its pin holds
			// the handle alive, but the catalog is closed so it can
			// only release. Wait for ready, then evict below.
			waits = append(waits, e.ready)
			entries = append(entries, e)
		}
	}
	c.mu.Unlock()
	for _, e := range toRetire {
		go c.retire(e)
	}
	var firstErr error
	for i, w := range waits {
		<-w
		e := entries[i]
		c.mu.Lock()
		needEvict := e.h != nil && !e.closing && c.docs[e.name] == e
		if needEvict {
			c.markClosingLocked(e)
		}
		gone := e.gone
		c.mu.Unlock()
		if needEvict {
			c.retire(e)
		}
		if gone != nil {
			<-gone
		}
		c.mu.Lock()
		if firstErr == nil && e.evictErr != nil {
			firstErr = e.evictErr
		}
		c.mu.Unlock()
	}
	return firstErr
}
