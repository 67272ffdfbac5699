package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
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
//	names tree:   nameID(u32 BE) || label bytes  -> node id
//
// Because the label encoding is order-preserving, a prefix scan under
// one nameID yields that name's ids in document order — no Before
// callback, no post-sort — and an edit touches that name's key range
// and no other.
//
// Nothing of it outlives the process: the name table (name -> nameID)
// is in memory, and the page file is unlinked scratch that only the
// pager reads back. Every open rebuilds the index from the document
// (the journal is the recovery truth).
type paged struct {
	mu   sync.Mutex
	bind Binding
	dir  string
	// cachePages is the pager budget handed to every generation.
	cachePages int

	cur   *pageGen        // vet:guardedby mu // nil once closed
	names *pagestore.Tree // vet:guardedby mu

	// nameIDs are dense and never freed: the next one is len(nameIDs).
	nameIDs map[string]uint32 // vet:guardedby mu

	// memoElems and memoIDs materialize Elems and IDs so repeated
	// queries don't re-scan the tree; an edit drops memoElems and the
	// lists of the names it touched, nothing else. They are mutated
	// only under mu, but a materialized slice itself is never written
	// again — invalidation forgets it — so handing one out as a borrowed
	// read-only view is safe and they are deliberately left un-annotated.
	memoElems []int
	memoIDs   map[string][]int

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
// pages are a spill target, not a source of truth. Binding.Key is
// required.
func OpenPaged(dir string, cachePages int, b Binding) (Backend, error) {
	if b.Key == nil {
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
	p := &paged{
		bind:       b,
		dir:        dir,
		cachePages: cachePages,
		nameIDs:    map[string]uint32{},
		memoIDs:    map[string][]int{},
	}
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

// vet:holds p.mu
func (p *paged) nameIDLocked(name string) uint32 {
	if id, ok := p.nameIDs[name]; ok {
		return id
	}
	id := uint32(len(p.nameIDs))
	p.nameIDs[name] = id
	return id
}

// keyLocked builds node id's key in the shared scratch: nameID
// (big-endian, so prefix scans isolate one name) followed by the
// order-preserving label bytes.
//
// vet:holds p.mu
func (p *paged) keyLocked(nameID uint32, id int) ([]byte, error) {
	key, err := p.bind.Key(binary.BigEndian.AppendUint32(p.keyBuf[:0], nameID), id)
	if err != nil {
		return nil, err
	}
	p.keyBuf = key
	return key, nil
}

// dropMemoLocked forgets the lists an edit to one of name's elements
// made stale.
//
// vet:holds p.mu
func (p *paged) dropMemoLocked(name string) {
	p.memoElems = nil
	delete(p.memoIDs, name)
}

// maxPagedLabel is the longest label the tree can key: four bytes of
// pagestore.MaxKeySize go to the name id.
const maxPagedLabel = pagestore.MaxKeySize - 4

// vet:holds p.mu
func (p *paged) addLocked(name string, id int) error {
	if id < 0 || int64(id) > math.MaxUint32 {
		return fmt.Errorf("store: node id %d out of paged range", id)
	}
	key, err := p.keyLocked(p.nameIDLocked(name), id)
	if err != nil {
		return err
	}
	if len(key) > pagestore.MaxKeySize {
		return fmt.Errorf("%w: node %d has %d bytes, limit %d", ErrLabelTooLong, id, len(key)-4, maxPagedLabel)
	}
	p.dropMemoLocked(name)
	return p.names.Insert(key, uint32(id))
}

func (p *paged) Build(elems []int, nameOf func(int) string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.names.Count() == 0 {
		return p.addAllLocked(elems, nameOf)
	}
	// Rebuild into a fresh generation rather than deleting entry by
	// entry. The old tree stays until the new one is complete, so a
	// failed rebuild leaves the index as it was.
	old := generation{p.cur, p.names}
	if err := p.openGen(); err != nil {
		return err
	}
	if err := p.endGenLocked(old, p.addAllLocked(elems, nameOf)); err != nil {
		return err
	}
	p.memoElems, p.memoIDs = nil, map[string][]int{}
	return nil
}

// vet:holds p.mu
func (p *paged) addAllLocked(elems []int, nameOf func(int) string) error {
	for _, id := range elems {
		if err := p.addLocked(nameOf(id), id); err != nil {
			return err
		}
	}
	return nil
}

func (p *paged) Add(name string, id int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addLocked(name, id)
}

func (p *paged) Remove(doomed map[int]bool, nameOf func(int) string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id := range doomed {
		name := nameOf(id)
		if name == "" {
			continue // only elements are indexed
		}
		nameID, ok := p.nameIDs[name]
		if !ok {
			// Every Add allocates its name's id first, so a name without
			// one has no entries; allocating one here would permanently
			// grow the name table (and every future clone's copy) for
			// names only ever seen in deletes.
			continue
		}
		key, err := p.keyLocked(nameID, id)
		if err != nil {
			return err
		}
		p.dropMemoLocked(name)
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if ids, ok := p.memoIDs[name]; ok {
		return ids
	}
	nameID, ok := p.nameIDs[name]
	if !ok {
		return nil
	}
	ids := p.scanIDsLocked([]int{}, binary.BigEndian.AppendUint32(nil, nameID))
	if ids != nil {
		p.memoIDs[name] = ids
	}
	return ids
}

func (p *paged) Elems() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.memoElems == nil {
		p.memoElems = listElems(p.bind, p.names.Count(), p.appendAllLocked)
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
	fp += int64(len(p.memoElems)) * 8
	for _, ids := range p.memoIDs {
		fp += int64(len(ids)) * 8
	}
	for name := range p.nameIDs {
		fp += int64(len(name)) + 24
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
// clone inherits the generation; a later Compact on either side swaps
// only that side's pointers, and the shared old file stays readable
// until every holder drops it.
func (p *paged) Clone(b Binding) (Backend, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &paged{
		bind:       b,
		dir:        p.dir,
		cachePages: p.cachePages,
		cur:        p.cur,
		names:      p.names.Clone(),
		nameIDs:    maps.Clone(p.nameIDs),
		memoIDs:    map[string][]int{},
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

// generation is a page file with the tree in it.
type generation struct {
	gen   *pageGen
	names *pagestore.Tree
}

// endGenLocked finishes the swap that openGen over old started, once
// the new tree is filled. If filling it failed it discards it and puts
// old back; otherwise old is retired, and closes once no clone holds it
// any more (pageGen).
//
// vet:holds p.mu
func (p *paged) endGenLocked(old generation, fillErr error) error {
	if fillErr != nil {
		_ = p.cur.close()
		p.cur, p.names = old.gen, old.names
		return fmt.Errorf("store: generation swap aborted: %w", fillErr)
	}
	return nil
}

// Compact rebuilds the tree densely into a new generation, reclaiming
// pages left sparse by unbalanced deletes. The entries, and so the
// memoized lists, are unchanged.
func (p *paged) Compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		return errors.New("store: paged backend is closed")
	}
	old := generation{p.cur, p.names}
	if err := p.openGen(); err != nil {
		return err
	}
	return p.endGenLocked(old, copyTree(old.names, p.names))
}

func copyTree(src, dst *pagestore.Tree) error {
	var insErr error
	err := src.Scan(func(k []byte, v uint32) bool {
		insErr = dst.Insert(k, v)
		return insErr == nil
	})
	return errors.Join(err, insErr)
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
