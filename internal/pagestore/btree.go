package pagestore

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/invariants"
)

// MaxKeySize bounds one key so that a page always fits several
// entries; label byte keys are tens of bytes in practice.
const MaxKeySize = 1024

// search returns the first slot i with key <= key(i), and whether
// key(i) is key.
func (n *node) search(key []byte) (int, bool) {
	return sort.Find(n.count(), func(i int) int { return bytes.Compare(key, n.key(i)) })
}

// childIndex picks the child covering key in an internal page: the
// last slot whose key, a lower bound of its child, is <= key. Slot 0's
// empty key is <= every key.
func (n *node) childIndex(key []byte) int {
	i, ok := n.search(key)
	if !ok {
		i--
	}
	return i
}

// splitPut stores a new entry in slot i of n, which has no room for
// it, by first moving n's upper entries into the empty page right. The
// boundary halves n's bytes, not its entry count (with skewed key sizes
// a count split can leave a half the new entry does not fit), and
// steps one entry down when the new entry lands in a left half it
// would overflow; an entry is at most a quarter page, so both halves
// then fit, and both stay non-empty.
//
// It returns the separator for the parent. A leaf keeps every entry:
// the separator is the right half's smallest key, and aliases right. An
// internal page pushes the boundary key up — as a copy, its bytes are
// dead in n from here on: its child becomes the right half's slot 0,
// under the empty key, so each child stays reachable from exactly one
// side.
func (n *node) splitPut(right *node, i int, key []byte, val uint32) (sep []byte) {
	cnt := n.count()
	size := func(j int) int {
		off, end := n.span(j)
		return end - off + 2
	}
	h, left := 1, size(0) // left = bytes of entries [0, h)
	for total := n.live(); 2*left < total && h < cnt-1; h++ {
		left += size(h)
	}
	if i <= h && left+len(key)+entryOverhead > PayloadSize {
		h--
	}
	for j := h; j < cnt; j++ {
		n.setDead(n.dead() + size(j) - 2)
		if j == h && !n.leaf() {
			sep = bytes.Clone(n.key(h))
			right.put(0, nil, n.val(h))
		} else {
			right.appendFrom(n, j)
		}
	}
	n.setCount(h)
	if i <= h {
		n.put(i, key, val)
	} else {
		right.put(i-h, key, val)
	}
	if n.leaf() {
		sep = right.key(0)
	}
	return sep
}

// Tree is a B-tree over a shared pager, keyed by raw bytes with uint32
// values. Updates are copy-on-write once per snapshot: a page this Tree
// allocated since it was created, cloned or last sealed (the owned set)
// is reachable from no other root, so Insert and Delete mutate its
// cached frame in place — no copy, no new page id, no parent change
// unless a split or an unlink alters the parent. Any other page on the
// path is first copied into a fresh owned page and its parent
// re-pointed, up to the root. Clone is therefore O(1) — share the
// pager, take the root, empty both owned sets — which lets the snapshot
// layer keep one immutable tree per published snapshot.
//
// Synchronisation: clones share one pager, so a reader's fault can
// evict — and so seal — a writer's dirty page. Every mutation and
// every seal of a cached frame therefore happens under the pager's
// mutex, which Insert and Delete hold for the whole operation. Readers
// (Get, Scan*) take it per page and read the frame after releasing it:
// a page a reader can reach is owned by no writer, so nothing of it
// changes again but the footer a writeback stores, which no reader
// looks at. A reader may hold a frame past its eviction, so frames are
// never reused. Even under the mutex a mutation keeps no frame across a
// call that can evict; it re-fetches a parent by id once the child
// returns.
//
// A Tree is not safe for concurrent use; the store layer serializes
// access. Distinct clones may be used concurrently.
type Tree struct {
	pg    *Pager
	root  uint32 // 0 = empty
	count int
	owned map[uint32]bool
}

// NewTree returns an empty tree over pg.
func NewTree(pg *Pager) *Tree { return &Tree{pg: pg, owned: map[uint32]bool{}} }

// Count returns the number of entries.
func (t *Tree) Count() int { return t.count }

// Clone returns an independent tree sharing pg and the current root.
// Either side may keep mutating; path copying keeps the other's view
// intact. Cloning seals the receiver too: pages it allocated are now
// reachable from the clone's root, so neither side may mutate them in
// place anymore.
func (t *Tree) Clone() *Tree {
	t.Sealed()
	return &Tree{pg: t.pg, root: t.root, count: t.count, owned: map[uint32]bool{}}
}

// Sealed drops ownership of every page allocated so far, so later
// mutations path-copy them instead of changing them in place: what
// Clone does to the receiver.
func (t *Tree) Sealed() { t.owned = map[uint32]bool{} }

// newPage caches n as a fresh page this tree owns.
//
// vet:holds t.pg.mu
func (t *Tree) newPage(n *node) (*cached, error) {
	e, err := t.pg.newPageLocked(n)
	if e != nil {
		t.owned[e.id] = true
	}
	return e, err
}

// mutable returns the entry through which this tree may change page
// e: e itself when the tree owns it, else a copy in a fresh owned page
// — the copy-on-write paid once per page per snapshot. It takes
// getLocked's results, passing an error through.
//
// vet:holds t.pg.mu
func (t *Tree) mutable(e *cached, err error) (*cached, error) {
	if err != nil || t.owned[e.id] {
		return e, err
	}
	if invariants.Enabled {
		if err := checkPage(e.node); err != nil {
			return nil, err
		}
	}
	c := *e.node
	return t.newPage(&c)
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) (uint32, bool, error) {
	for id := t.root; id != 0; {
		n, err := t.pg.node(id)
		if err != nil {
			return 0, false, err
		}
		if n.leaf() {
			i, ok := n.search(key)
			if !ok {
				return 0, false, nil
			}
			return n.val(i), true, nil
		}
		id = n.val(n.childIndex(key))
	}
	return 0, false, nil
}

// Insert stores val under key, replacing any existing value. The key
// bytes are copied into page storage.
func (t *Tree) Insert(key []byte, val uint32) error {
	if len(key) == 0 || len(key) > MaxKeySize {
		return fmt.Errorf("pagestore: key size %d out of range [1,%d]", len(key), MaxKeySize)
	}
	t.pg.mu.Lock()
	defer t.pg.mu.Unlock()
	if t.root == 0 {
		e, err := t.newPage(newNode(PageLeaf))
		if err != nil {
			return err
		}
		t.root = e.id
	}
	id, sep, right, added, err := t.insert(t.root, key, val)
	if err != nil {
		return err
	}
	if sep != nil {
		root := newNode(PageInternal)
		root.put(0, nil, id)
		root.put(1, sep, right)
		e, err := t.newPage(root)
		if err != nil {
			return err
		}
		id = e.id
	}
	t.root = id
	if added {
		t.count++
	}
	return nil
}

// insert descends into page id and returns the id now holding the
// updated page — id itself unless the page had to be copied — plus a
// separator and right-sibling id when the page split.
//
// vet:holds t.pg.mu
func (t *Tree) insert(id uint32, key []byte, val uint32) (newID uint32, sep []byte, rightID uint32, added bool, err error) {
	e, err := t.pg.getLocked(id)
	if err != nil {
		return 0, nil, 0, false, err
	}
	var i int // the slot the page's new entry takes
	if e.node.leaf() {
		var ok bool
		i, ok = e.node.search(key)
		if e, err = t.mutable(e, nil); err != nil {
			return 0, nil, 0, false, err
		}
		e.dirty = true
		if ok {
			e.node.setVal(i, val)
			return e.id, nil, 0, false, nil
		}
		added = true
	} else {
		i = e.node.childIndex(key)
		child := e.node.val(i)
		childNew, childSep, childRight, childAdded, err := t.insert(child, key, val)
		if err != nil || (childNew == child && childSep == nil) {
			return id, nil, 0, childAdded, err
		}
		// The descent may have evicted this page: fetch it again
		// rather than trust e.
		if e, err = t.mutable(t.pg.getLocked(id)); err != nil {
			return 0, nil, 0, false, err
		}
		e.dirty, added = true, childAdded
		e.node.setVal(i, childNew)
		if childSep == nil {
			return e.id, nil, 0, added, nil
		}
		i, key, val = i+1, childSep, childRight
	}
	// Compacting pays only if it leaves a quarter page free: a fuller
	// page, under deletes, would compact again within a few inserts.
	if n, need := e.node, len(key)+entryOverhead; n.used()+need+2*n.count() <= PayloadSize || n.live()+need <= PayloadSize*3/4 {
		n.put(i, key, val)
		return e.id, nil, 0, added, nil
	}
	right := newNode(e.node.typ())
	sep = e.node.splitPut(right, i, key, val)
	r, err := t.newPage(right) // may evict e: nothing below touches it
	if err != nil {
		return 0, nil, 0, false, err
	}
	return e.id, sep, r.id, added, nil
}

// Load fills an empty tree from src, which yields strictly ascending
// keys. It packs leaves left to right up to the byte, then builds each
// internal level from the first keys of the level below, slot 0 under
// the empty key; the tree owns every page. A key out of order, repeated
// or out of size, or src's error, leaves the tree empty.
func (t *Tree) Load(src func(yield func(key []byte, val uint32) bool) error) (err error) {
	if t.count != 0 {
		return fmt.Errorf("pagestore: Load into a non-empty tree")
	}
	l := loader{t: t}
	if srcErr := src(func(key []byte, val uint32) bool {
		switch {
		case len(key) == 0 || len(key) > MaxKeySize:
			err = fmt.Errorf("pagestore: key size %d out of range [1,%d]", len(key), MaxKeySize)
		case t.count > 0 && bytes.Compare(l.open[0].key(l.open[0].count()-1), key) >= 0:
			err = fmt.Errorf("pagestore: Load: key %d does not sort after the one before it", t.count)
		default:
			t.count++
			err = l.push(0, key, val)
		}
		return err == nil
	}); err == nil {
		err = srcErr
	}
	for h := 0; h < len(l.open) && err == nil; h++ {
		err = l.close(h, true)
	}
	if err != nil {
		t.root, t.count = 0, 0
	}
	return err
}

// loader is Load's right edge: each level's open page and its first key.
type loader struct {
	t    *Tree
	open []*node
	low  [][]byte
}

// push appends an entry to level h's open page, closing it first if full.
func (l *loader) push(h int, key []byte, val uint32) error {
	if h == len(l.open) {
		l.open, l.low = append(l.open, nil), append(l.low, nil)
	} else if n := l.open[h]; n.put(n.count(), key, val) {
		return nil
	} else if err := l.close(h, false); err != nil {
		return err
	}
	n, slot0 := newNode(PageLeaf), key
	if h > 0 {
		n, slot0 = newNode(PageInternal), nil
	}
	n.put(0, slot0, val)
	l.open[h], l.low[h] = n, append(l.low[h][:0], key...)
	return nil
}

// close hands level h's page to the pager and its first key up, or the
// top level's at the end to the root.
func (l *loader) close(h int, end bool) error {
	l.t.pg.mu.Lock()
	e, err := l.t.newPage(l.open[h])
	l.t.pg.mu.Unlock()
	switch {
	case err == nil && end && h == len(l.open)-1:
		l.t.root = e.id
	case err == nil:
		err = l.push(h+1, l.low[h], e.id)
	}
	return err
}

// Delete removes key, reporting whether it was present. Underflowing
// pages are not rebalanced — deletes only shrink a page until it
// empties, at which point it is unlinked from its parent; compaction
// (a bulk rebuild into a fresh file) restores density.
func (t *Tree) Delete(key []byte) (bool, error) {
	t.pg.mu.Lock()
	defer t.pg.mu.Unlock()
	if t.root == 0 {
		return false, nil
	}
	root, removed, err := t.delete(t.root, key)
	if err != nil || !removed {
		return false, err
	}
	t.root, t.count = root, t.count-1
	// Collapse a root holding a single child.
	for t.root != 0 {
		e, err := t.pg.getLocked(t.root)
		if err != nil {
			return true, err
		}
		if e.node.leaf() || e.node.count() > 1 {
			break
		}
		t.root = e.node.val(0)
	}
	return true, nil
}

// delete descends into page id and returns the id now holding the
// updated page, or 0 when the delete emptied it.
//
// vet:holds t.pg.mu
func (t *Tree) delete(id uint32, key []byte) (newID uint32, removed bool, err error) {
	e, err := t.pg.getLocked(id)
	if err != nil {
		return 0, false, err
	}
	if e.node.leaf() {
		i, ok := e.node.search(key)
		if !ok {
			return id, false, nil
		}
		if e.node.count() == 1 {
			return 0, true, nil
		}
		if e, err = t.mutable(e, nil); err != nil {
			return 0, false, err
		}
		e.node.remove(i)
		e.dirty = true
		return e.id, true, nil
	}
	ci := e.node.childIndex(key)
	child := e.node.val(ci)
	childNew, removed, err := t.delete(child, key)
	if err != nil || !removed || childNew == child {
		return id, removed, err
	}
	if childNew == 0 && e.node.count() == 1 {
		return 0, true, nil
	}
	// As in insert: the descent may have evicted this page.
	if e, err = t.mutable(t.pg.getLocked(id)); err != nil {
		return 0, false, err
	}
	switch n := e.node; {
	case childNew != 0:
		n.setVal(ci, childNew)
	case ci == 0:
		// Unlink the emptied child: slot 0 keeps the empty key and
		// takes over its neighbour's child.
		n.setVal(0, n.val(1))
		n.remove(1)
	default:
		n.remove(ci)
	}
	e.dirty = true
	return e.id, true, nil
}

// Scan walks every entry in key order, stopping early when fn returns
// false. The key slice passed to fn aliases page storage and is only
// valid during the call.
func (t *Tree) Scan(fn func(key []byte, val uint32) bool) error {
	return t.ScanFrom(nil, fn)
}

// ScanFrom walks entries with key >= from (nil = from the start) in
// key order, stopping early when fn returns false.
func (t *Tree) ScanFrom(from []byte, fn func(key []byte, val uint32) bool) error {
	if t.root == 0 {
		return nil
	}
	_, err := t.scan(t.root, from, fn)
	return err
}

// scan walks the subtree under page id — from the entry covering from
// when it is set, else from the leftmost — and reports whether fn
// wants more.
func (t *Tree) scan(id uint32, from []byte, fn func(key []byte, val uint32) bool) (bool, error) {
	n, err := t.pg.node(id)
	if err != nil {
		return false, err
	}
	i := 0
	if n.leaf() {
		if from != nil {
			i, _ = n.search(from)
		}
		for cnt := n.count(); i < cnt; i++ {
			if !fn(n.key(i), n.val(i)) {
				return false, nil
			}
		}
		return true, nil
	}
	if from != nil {
		i = n.childIndex(from)
	}
	for ; i < n.count(); i++ {
		if more, err := t.scan(n.val(i), from, fn); err != nil || !more {
			return false, err
		}
		from = nil // only the first child is entered part-way
	}
	return true, nil
}

// ScanPrefix walks entries whose key starts with prefix, in key order.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key []byte, val uint32) bool) error {
	return t.ScanFrom(prefix, func(k []byte, v uint32) bool {
		return bytes.HasPrefix(k, prefix) && fn(k, v)
	})
}
