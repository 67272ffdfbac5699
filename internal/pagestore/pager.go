package pagestore

import (
	"encoding/binary"
	"fmt"
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
	mReadErrors  = metrics.Default.Counter("pagestore_read_errors_total")
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
// footer computed and reach the file only when evicted. Nothing is ever
// synced: the file is scratch that only this pager reads.
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
	// file.
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
		next:  1, // page 0 is never allocated
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
// dirty; it reaches the file when it is evicted.
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
// whatever was evicted — and verifies checksum, then structure. A
// spill that fails either is counted and stays uncached, so every
// later fault on it fails, and is counted, again.
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
	err := p.file.ReadPage(id, n[:])
	if err == nil {
		err = n.validate()
	}
	if err != nil {
		mReadErrors.Inc()
		return nil, err
	}
	e := &cached{id: id, node: n}
	return e, p.insertLocked(e)
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

// Close drops the cache (without writeback) and closes the file, whose
// pages go with it.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cache != nil {
		mPages.Add(-float64(len(p.cache)))
		p.cache, p.lru = nil, cached{}
	}
	return p.file.Close()
}
