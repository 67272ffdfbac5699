package pagestore

import (
	"fmt"
	"sort"
	"sync"

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
// hold a root-to-leaf path of both trees plus the pages one mutation
// touches, so a pathological budget cannot thrash a single operation
// against its own evictions.
const MinCachePages = 8

// cached is one resident page: its decoded node — the only form a page
// has in memory — and LRU links. Page bytes exist only in the pager's
// scratch buffer, while a page crosses the file boundary.
type cached struct {
	id         uint32
	node       *node
	dirty      bool
	bytes      int // heap estimate of node, charged to Pager.resident
	prev, next *cached
}

// Pager serves B-tree nodes out of an LRU cache over a page File. A
// miss reads the page with CRC verification and decodes it; new and
// mutated nodes stay decoded and dirty, and are encoded and sealed only
// when evicted or flushed. Only Flush moves the committed state —
// eviction writeback never fsyncs and never touches the meta page, so a
// crash exposes at most an old committed root whose pages are all
// intact.
//
// All methods are safe for concurrent use; snapshot readers and the
// writer share one pager. Every mutation and every encode of a cached
// node happens under mu (see Tree for the full rule).
type Pager struct {
	mu      sync.Mutex
	file    *File
	cap     int
	cache   map[uint32]*cached
	head    *cached // most recently used
	tail    *cached // least recently used
	next    uint32  // vet:guardedby mu // next page id to allocate
	scratch []byte  // vet:guardedby mu // the one page buffer reads and writebacks pass through

	resident                 int64  // vet:guardedby mu // sum of cached.bytes
	hits, misses, writebacks uint64 // vet:guardedby mu
}

// PagerStats is a point-in-time snapshot of one pager's counters.
type PagerStats struct {
	// Resident is the number of cached pages right now, ResidentBytes
	// the heap estimate of their decoded nodes.
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
	return &Pager{
		file:    file,
		cap:     cachePages,
		cache:   make(map[uint32]*cached, cachePages),
		next:    file.Meta().Pages,
		scratch: make([]byte, PageSize),
	}
}

// lruUnlink removes e from the LRU list.
//
// vet:holds p.mu
func (p *Pager) lruUnlink(e *cached) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruFront pushes e to the most-recently-used end.
//
// vet:holds p.mu
func (p *Pager) lruFront(e *cached) {
	e.prev, e.next = nil, p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
}

// writebackLocked encodes and seals e's node into the scratch page and
// writes it at its id (no fsync).
//
// vet:holds p.mu
func (p *Pager) writebackLocked(e *cached) error {
	if err := encodeNode(e.node, e.id, p.scratch); err != nil {
		return err
	}
	if invariantsEnabled {
		if err := checkEncoding(e.node, p.scratch); err != nil {
			return err
		}
	}
	if err := p.file.WritePage(p.scratch); err != nil {
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
	e.bytes = e.node.heapBytes()
	p.resident += int64(e.bytes)
	mPages.Add(1)
	for len(p.cache) > p.cap {
		victim := p.tail
		if victim.dirty {
			if err := p.writebackLocked(victim); err != nil {
				return err
			}
			p.writebacks++
			mWritebacks.Inc()
		}
		p.lruUnlink(victim)
		delete(p.cache, victim.id)
		p.resident -= int64(victim.bytes)
		mPages.Add(-1)
	}
	return nil
}

// newPageLocked allocates a fresh page id holding n and caches it
// dirty; its bytes first exist when it is evicted or flushed.
//
// vet:holds p.mu
func (p *Pager) newPageLocked(n *node) (*cached, error) {
	if p.cache == nil {
		return nil, fmt.Errorf("pagestore: pager is closed")
	}
	e := &cached{id: p.next, node: n, dirty: true}
	p.next++
	return e, p.insertLocked(e)
}

// markDirtyLocked records that e's node was mutated in place: it needs
// writeback, and its heap estimate may have moved.
//
// vet:holds p.mu
func (p *Pager) markDirtyLocked(e *cached) {
	e.dirty = true
	b := e.node.heapBytes()
	p.resident += int64(b - e.bytes)
	e.bytes = b
}

// node returns the decoded node of page id for reading, faulting it in
// on a miss.
func (p *Pager) node(id uint32) (*node, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, err := p.getLocked(id)
	if err != nil {
		return nil, err
	}
	return e.node, nil
}

// getLocked looks id up in the cache; a miss reads the page through the
// scratch buffer, verifies it and decodes it into a node of its own.
//
// vet:holds p.mu
func (p *Pager) getLocked(id uint32) (*cached, error) {
	if p.cache == nil {
		return nil, fmt.Errorf("pagestore: pager is closed")
	}
	if e, ok := p.cache[id]; ok {
		p.hits++
		mCacheHits.Inc()
		if p.head != e {
			p.lruUnlink(e)
			p.lruFront(e)
		}
		return e, nil
	}
	p.misses++
	mCacheMisses.Inc()
	if err := p.file.ReadPage(id, p.scratch); err != nil {
		return nil, err
	}
	n, err := decodeNode(p.scratch)
	if err != nil {
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
		ResidentBytes: p.resident,
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
		p.cache, p.head, p.tail, p.resident = nil, nil, nil, 0
	}
	return p.file.Close()
}
