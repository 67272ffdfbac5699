package pagestore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/invariants"
	"repro/internal/metrics"
)

// Process-wide pager metrics, aggregated across every open pager.
var (
	mCacheHits   = metrics.Default.Counter("pagestore_cache_hits")
	mCacheMisses = metrics.Default.Counter("pagestore_cache_misses")
	mWritebacks  = metrics.Default.Counter("pagestore_writebacks")
	mPages       = metrics.Default.Gauge("pagestore_pages")
)

// MinCachePages is the smallest cache a pager will run with: enough to
// hold a root-to-leaf path of a tree plus the pages one mutation
// touches, so a pathological budget cannot thrash a single operation
// against its own evictions.
const MinCachePages = 8

// cached is one resident page: its frame — the same 4 KB the file
// holds — and LRU links. The frame is an allocation of its own, exactly
// PageSize, because a reader may keep it past the entry's eviction.
type cached struct {
	id         uint32
	dirty      bool
	node       *node
	prev, next *cached
}

// residentPageBytes is what one cached page holds on the heap.
const residentPageBytes = PageSize + int64(unsafe.Sizeof(cached{}))

// Pager serves B-tree pages out of an LRU cache over a page File. A
// miss reads the page straight into a fresh frame, verifies its CRC and
// then its structure; new and mutated frames stay dirty, and have their
// footer computed only when evicted or flushed. Only Flush moves the
// committed state — eviction writeback never fsyncs and never touches
// the meta page, so a crash exposes at most an old committed root whose
// pages are all intact.
//
// All methods are safe for concurrent use; snapshot readers and the
// writer share one pager. Every mutation and every seal of a cached
// frame happens under mu (see Tree for the full rule).
type Pager struct {
	mu    sync.Mutex
	file  *File
	cap   int
	cache map[uint32]*cached
	lru   cached // list sentinel: lru.next is the most recently used page, lru.prev the least
	next  uint32 // vet:guardedby mu // next page id to allocate

	hits, misses, writebacks uint64 // vet:guardedby mu
}

// PagerStats is a point-in-time snapshot of one pager's counters.
type PagerStats struct {
	// Resident is the number of cached pages right now, ResidentBytes
	// the heap they hold: a frame and a cache entry each.
	Resident      int
	ResidentBytes int64
	// Allocated is the number of data pages ever allocated in the
	// current file (committed or not).
	Allocated int
	// Hits, Misses and Writebacks count cache lookups and dirty-page
	// evictions since the pager opened.
	Hits, Misses, Writebacks uint64
}

// NewPager wraps file with a cache of at most cachePages pages
// (clamped up to MinCachePages).
func NewPager(file *File, cachePages int) *Pager {
	if cachePages < MinCachePages {
		cachePages = MinCachePages
	}
	p := &Pager{
		file:  file,
		cap:   cachePages,
		cache: make(map[uint32]*cached, cachePages),
		next:  file.Meta().Pages,
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// lruUnlink removes e from the LRU list.
//
// vet:holds p.mu
func (p *Pager) lruUnlink(e *cached) { e.prev.next, e.next.prev = e.next, e.prev }

// lruFront pushes e to the most-recently-used end.
//
// vet:holds p.mu
func (p *Pager) lruFront(e *cached) {
	e.prev, e.next = &p.lru, p.lru.next
	e.prev.next, e.next.prev = e, e
}

// writebackLocked seals e's frame in place and writes it at its id (no
// fsync). Only the footer changes, which no reader looks at.
//
// vet:holds p.mu
func (p *Pager) writebackLocked(e *cached) error {
	if invariants.Enabled {
		if err := checkPage(e.node); err != nil {
			return err
		}
	}
	Seal(e.node[:])
	if err := p.file.WritePage(e.node[:]); err != nil {
		return err
	}
	e.dirty = false
	return nil
}

// insertLocked adds e to the cache, evicting from the LRU end past
// capacity. Dirty evictees are written back first.
//
// vet:holds p.mu
func (p *Pager) insertLocked(e *cached) error {
	p.cache[e.id] = e
	p.lruFront(e)
	mPages.Add(1)
	for len(p.cache) > p.cap {
		victim := p.lru.prev
		if victim.dirty {
			if err := p.writebackLocked(victim); err != nil {
				return err
			}
			p.writebacks++
			mWritebacks.Inc()
		}
		p.lruUnlink(victim)
		delete(p.cache, victim.id)
		mPages.Add(-1)
	}
	return nil
}

// newPageLocked stamps a fresh page id into frame n and caches it
// dirty; it reaches the file when it is evicted or flushed.
//
// vet:holds p.mu
func (p *Pager) newPageLocked(n *node) (*cached, error) {
	if p.cache == nil {
		return nil, fmt.Errorf("pagestore: pager is closed")
	}
	binary.BigEndian.PutUint32(n[4:8], p.next)
	e := &cached{id: p.next, node: n, dirty: true}
	p.next++
	return e, p.insertLocked(e)
}

// node returns the frame of page id for reading, faulting it in on a
// miss.
func (p *Pager) node(id uint32) (*node, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, err := p.getLocked(id)
	if err != nil {
		return nil, err
	}
	return e.node, nil
}

// getLocked looks id up in the cache; a miss reads the page into a
// frame of its own — never a recycled one, a reader may still hold
// whatever was evicted — and verifies checksum, then structure.
//
// vet:holds p.mu
func (p *Pager) getLocked(id uint32) (*cached, error) {
	if p.cache == nil {
		return nil, fmt.Errorf("pagestore: pager is closed")
	}
	if e, ok := p.cache[id]; ok {
		p.hits++
		mCacheHits.Inc()
		if p.lru.next != e {
			p.lruUnlink(e)
			p.lruFront(e)
		}
		return e, nil
	}
	p.misses++
	mCacheMisses.Inc()
	n := new(node)
	if err := p.file.ReadPage(id, n[:]); err != nil {
		return nil, err
	}
	if err := n.validate(); err != nil {
		return nil, err
	}
	e := &cached{id: id, node: n}
	return e, p.insertLocked(e)
}

// Flush writes every dirty page back in ascending page id — sequential
// I/O, and file bytes that are a function of the edit history alone —
// and commits the given roots and counts: dirty writeback, fsync, meta
// slot write, fsync — the ordering rule that makes the committed root
// only ever reference fully-written pages.
func (p *Pager) Flush(roots [2]uint32, counts [2]uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dirty []*cached
	for _, e := range p.cache {
		if e.dirty {
			dirty = append(dirty, e)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].id < dirty[j].id })
	for _, e := range dirty {
		if err := p.writebackLocked(e); err != nil {
			return err
		}
	}
	return p.file.Commit(Meta{Pages: p.next, Roots: roots, Counts: counts})
}

// Stats returns a snapshot of the pager's counters.
func (p *Pager) Stats() PagerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PagerStats{
		Resident:      len(p.cache),
		ResidentBytes: int64(len(p.cache)) * residentPageBytes,
		Allocated:     int(p.next) - 1,
		Hits:          p.hits,
		Misses:        p.misses,
		Writebacks:    p.writebacks,
	}
}

// Close drops the cache (without writeback) and closes the file. The
// committed state on disk is whatever the last Flush established.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cache != nil {
		mPages.Add(-float64(len(p.cache)))
		p.cache, p.lru = nil, cached{}
	}
	return p.file.Close()
}
