package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/pagestore"
)

// ErrNoOrderedKeys reports a labeling scheme that cannot produce
// order-preserving label bytes; the paged backend requires them.
var ErrNoOrderedKeys = errors.New("store: labeling scheme does not expose order-preserving label bytes")

// paged keeps the element index in one B-tree over a checksummed page
// file:
//
//	names tree:   symbol(u32 BE) || label bytes  -> node id
//
// The symbol is the name's code in the binding's symbol table, which is
// dense and never frees one. Because the label encoding is
// order-preserving, a prefix scan under one symbol yields that name's
// ids in document order — no Before callback, no post-sort — and an
// edit touches that name's key range and no other.
//
// Nothing of it outlives the process: the page file is unlinked
// scratch that only the pager reads back. Every open rebuilds the index
// from the document (the journal is the recovery truth).
type paged struct {
	mu  sync.Mutex
	doc Doc
	dir string
	// cachePages is the pager budget handed to every generation.
	cachePages int

	cur   *pageGen        // vet:guardedby mu // nil once closed
	names *pagestore.Tree // vet:guardedby mu

	// memoElems and memoIDs, by symbol, materialize Elems and IDs so
	// repeated queries don't re-scan the tree; a nil slot is no memo. An
	// edit drops memoElems and the lists of the names it touched, nothing
	// else. They are mutated only under mu, but a materialized slice
	// itself is never written again — invalidation forgets it — so
	// handing one out as a borrowed read-only view is safe and they are
	// deliberately left un-annotated.
	memoElems []int
	memoIDs   [][]int

	// keyBuf is the scratch keys are built in (the tree copies what it
	// keeps).
	keyBuf []byte // vet:guardedby mu

	// lastErr records a degraded read (IDs/Elems cannot return an
	// error through the query path); Err surfaces it.
	lastErr error // vet:guardedby mu
}

// pageGen is one generation: a page file and its pager, shared by
// every clone that has not swapped past it. It is closed once — by the
// first Close of a backend holding it, or by its finalizer after the
// last holder dropped it; its unlinked file stays readable through the
// open descriptor until then.
type pageGen struct {
	pg   *pagestore.Pager
	once sync.Once
	err  error
}

func (g *pageGen) close() error {
	g.once.Do(func() { g.err = g.pg.Close() })
	return g.err
}

// OpenPaged creates a paged backend whose page files are unlinked
// scratch in dir; page files older versions left there under a name
// are removed. The index is always rebuilt from the recovered document:
// pages are a spill target, not a source of truth. The binding must
// have ordered keys: the root's key answers for every node's.
func OpenPaged(dir string, cachePages int, b Binding) (Backend, error) {
	doc := b.doc(nil)
	if _, err := doc.AppendKey(nil, 0); errors.Is(err, ErrNoOrderedKeys) {
		return nil, ErrNoOrderedKeys
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, "labels-*.pages"))
	if err == nil {
		for _, s := range stale {
			_ = os.Remove(s)
		}
	}
	p := &paged{doc: doc, dir: dir, cachePages: cachePages}
	p.mu.Lock()
	err = p.openGen()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// openGen makes a fresh generation current: a new page file, a pager
// over it and an empty tree. On failure p is unchanged.
//
// vet:holds p.mu
func (p *paged) openGen() error {
	file, err := pagestore.Create(p.dir)
	if err != nil {
		return err
	}
	g := &pageGen{pg: pagestore.NewPager(file, p.cachePages)}
	runtime.SetFinalizer(g, func(g *pageGen) { _ = g.close() })
	p.cur = g
	p.names = pagestore.NewTree(g.pg)
	return nil
}

func (p *paged) Name() string { return "paged" }

// entryKey appends node id's key to dst: the symbol (big-endian, so
// prefix scans isolate one name), then the order-preserving label
// bytes. It refuses an id or, with ErrLabelTooLong, a key the tree
// cannot hold.
func (p *paged) entryKey(dst []byte, sym uint32, id int) ([]byte, error) {
	if id < 0 || int64(id) > math.MaxUint32 {
		return nil, fmt.Errorf("store: node id %d out of paged range", id)
	}
	key, err := p.doc.AppendKey(binary.BigEndian.AppendUint32(dst, sym), id)
	if err == nil && len(key) > pagestore.MaxKeySize {
		err = fmt.Errorf("%w: node %d has %d bytes, limit %d", ErrLabelTooLong, id, len(key)-4, maxPagedLabel)
	}
	return key, err
}

// dropMemoLocked forgets the lists an edit to one of sym's elements
// made stale.
//
// vet:holds p.mu
func (p *paged) dropMemoLocked(sym uint32) {
	p.memoElems = nil
	if int(sym) < len(p.memoIDs) {
		p.memoIDs[sym] = nil
	}
}

// maxPagedLabel is the longest label the tree can key: four bytes of
// pagestore.MaxKeySize go to the symbol.
const maxPagedLabel = pagestore.MaxKeySize - 4

// Build replaces the index in one pass: elems grouped by symbol in
// place, and within a name document order is label order, so the tree
// is bulk loaded from ascending keys. Nothing of the grouping is kept.
func (p *paged) Build(elems []int, nameOf func(int) string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.memoElems, p.memoIDs = nil, nil
	end, err := groupByName(elems, nameOf, p.doc.Symbols())
	if err != nil {
		return err
	}
	return p.loadLocked(func(yield func([]byte, uint32) bool) (err error) {
		var key []byte
		for n, lo := 0, 0; n < len(end); lo, n = end[n], n+1 {
			for _, id := range elems[lo:end[n]] {
				if key, err = p.entryKey(key[:0], uint32(n), id); err != nil {
					return err
				}
				if !yield(key, uint32(id)) {
					return nil
				}
			}
		}
		return nil
	})
}

// loadLocked bulk loads src into the tree while it is empty, else into
// a fresh generation that replaces the current one once it is complete.
//
// vet:holds p.mu
func (p *paged) loadLocked(src func(yield func([]byte, uint32) bool) error) error {
	if p.names.Count() == 0 {
		return p.names.Load(src)
	}
	old, names := p.cur, p.names
	if err := p.openGen(); err != nil {
		return err
	}
	if err := p.names.Load(src); err != nil {
		_ = p.cur.close()
		p.cur, p.names = old, names
		return fmt.Errorf("store: generation swap aborted: %w", err)
	}
	return nil
}

func (p *paged) Add(name string, id int) error {
	sym, err := p.doc.Symbols().Intern(name)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key, err := p.entryKey(p.keyBuf[:0], sym, id)
	if err != nil {
		return err
	}
	p.keyBuf = key
	p.dropMemoLocked(sym)
	return p.names.Insert(key, uint32(id))
}

func (p *paged) Remove(doomed map[int]bool, nameOf func(int) string) error {
	syms := p.doc.Symbols()
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range doomed {
		sym, ok := syms.Lookup(nameOf(id))
		if !ok {
			continue // not an element, so not indexed
		}
		key, err := p.doc.AppendKey(binary.BigEndian.AppendUint32(p.keyBuf[:0], sym), id)
		if err != nil {
			return err
		}
		p.keyBuf = key
		p.dropMemoLocked(sym)
		if _, err := p.names.Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// scanIDsLocked appends to ids the ids stored under prefix, in key
// order. A failed page read degrades to nil and is recorded for Err.
//
// vet:holds p.mu
func (p *paged) scanIDsLocked(ids []int, prefix []byte) []int {
	err := p.names.ScanPrefix(prefix, func(_ []byte, v uint32) bool {
		ids = append(ids, int(v))
		return true
	})
	if err != nil {
		p.lastErr = err
		return nil
	}
	return ids
}

// appendAllLocked appends every name's list to dst, one after another:
// the whole tree in key order.
//
// vet:holds p.mu
func (p *paged) appendAllLocked(dst []int) []int { return p.scanIDsLocked(dst, nil) }

func (p *paged) IDs(name string) []int {
	sym, ok := p.doc.Symbols().Lookup(name)
	if !ok {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if int(sym) < len(p.memoIDs) && p.memoIDs[sym] != nil {
		return p.memoIDs[sym]
	}
	ids := p.scanIDsLocked([]int{}, binary.BigEndian.AppendUint32(nil, sym))
	if ids != nil {
		if n := int(sym) + 1; n > len(p.memoIDs) {
			p.memoIDs = append(p.memoIDs, make([][]int, n-len(p.memoIDs))...)
		}
		p.memoIDs[sym] = ids
	}
	return ids
}

func (p *paged) Elems() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.memoElems == nil {
		p.memoElems = listElems(p.doc, p.names.Count(), p.appendAllLocked)
	}
	return p.memoElems
}

func (p *paged) Entries() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.names.Count()
}

// pagerStatsLocked is the pager's counters, zero once closed.
//
// vet:holds p.mu
func (p *paged) pagerStatsLocked() pagestore.PagerStats {
	if p.cur == nil {
		return pagestore.PagerStats{}
	}
	return p.cur.pg.Stats()
}

func (p *paged) MemoryFootprint() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	fp := p.pagerStatsLocked().ResidentBytes
	fp += int64(cap(p.memoElems)) * 8
	for _, ids := range p.memoIDs {
		fp += int64(cap(ids)) * 8
	}
	return fp
}

func (p *paged) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.pagerStatsLocked()
	return Stats{
		Backend:        "paged",
		Entries:        p.names.Count(),
		MaxLabel:       maxPagedLabel,
		ResidentPages:  st.Resident,
		AllocatedPages: st.Allocated,
		CacheHits:      st.Hits,
		CacheMisses:    st.Misses,
		Writebacks:     st.Writebacks,
	}
}

// Clone shares the page file copy-on-write: both sides' trees are
// sealed, so each changes only pages it allocates afterwards. The
// clone inherits the generation; a later rebuilding Build on either
// side swaps only that side's pointers, and the shared old file stays
// readable until every holder drops it.
func (p *paged) Clone(b Binding) (Backend, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &paged{
		doc:        b.doc(p.doc.Symbols()),
		dir:        p.dir,
		cachePages: p.cachePages,
		cur:        p.cur,
		names:      p.names.Clone(),
	}, nil
}

// Err reports, and clears, the error a degraded read recorded.
func (p *paged) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.lastErr
	p.lastErr = nil
	return err
}

func (p *paged) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		return nil
	}
	err := p.cur.close()
	p.cur = nil
	return err
}
