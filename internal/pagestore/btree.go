package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// MaxKeySize bounds one key so that a page always fits several
// entries; label byte keys are tens of bytes in practice.
const MaxKeySize = 1024

// node is the decoded form of a B-tree page: the form every tree
// operation works on, and the only form the pager caches. Key bytes
// are immutable once a node holds them (an insert copies the caller's
// key, a delete drops a slice header), so nodes share them: a decoded
// node's keys alias one copy of its page's payload, a clone's alias
// its original's.
type node struct {
	leaf     bool
	keys     [][]byte
	vals     []uint32 // leaf: one value per key
	children []uint32 // internal: len(keys)+1 child page ids
	size     int      // encoded payload bytes, kept current by every mutation
}

// Payload encodings:
//
//	leaf:     per entry: klen u16 | key | value u32
//	internal: child0 u32, then per key: klen u16 | key | child u32
const entryOverhead = 2 + 4

func (n *node) entrySize(i int) int { return entryOverhead + len(n.keys[i]) }

// heapBytes estimates the heap a resident node holds: 192 bytes of node
// and cache-entry structs, its key bytes (the encoded size stands in:
// its 6 bytes per entry roughly cover the allocator's rounding of
// inserted keys), 24 bytes of slice header per key slot and 4 per value
// or child slot.
func (n *node) heapBytes() int {
	return 192 + n.size + 24*cap(n.keys) + 4*(cap(n.vals)+cap(n.children))
}

// roomy copies s into a slice with append headroom, so the inserts
// that follow a fault-in, a copy-on-write or a split do not at once
// regrow kilobytes of slice headers.
func roomy[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, headroom(len(s))), s...)
}

func headroom(n int) int { return n + n/8 + 4 }

// decodeNode builds the node of a verified page buffer. The buffer is
// the pager's scratch page, so the payload is copied out; the keys
// alias that copy.
func decodeNode(buf []byte) (*node, error) {
	pl := bytes.Clone(payload(buf))
	nk := pageNKeys(buf)
	n := &node{size: len(pl), keys: make([][]byte, 0, headroom(nk))}
	off := 0
	switch pageType(buf) {
	case PageLeaf:
		n.leaf = true
		n.vals = make([]uint32, 0, headroom(nk))
	case PageInternal:
		if len(pl) < 4 {
			return nil, &ErrPageCorrupt{ID: pageID(buf), Reason: "internal node shorter than child0"}
		}
		n.children = make([]uint32, 0, headroom(nk+1))
		n.children = append(n.children, binary.BigEndian.Uint32(pl[:4]))
		off = 4
	default:
		return nil, &ErrPageCorrupt{ID: pageID(buf), Reason: fmt.Sprintf("unexpected page type %d", pageType(buf))}
	}
	for i := 0; i < nk; i++ {
		if off+2 > len(pl) {
			return nil, &ErrPageCorrupt{ID: pageID(buf), Reason: "truncated entry header"}
		}
		klen := int(binary.BigEndian.Uint16(pl[off : off+2]))
		off += 2
		if off+klen+4 > len(pl) {
			return nil, &ErrPageCorrupt{ID: pageID(buf), Reason: "truncated entry"}
		}
		n.keys = append(n.keys, pl[off:off+klen:off+klen])
		off += klen
		v := binary.BigEndian.Uint32(pl[off : off+4])
		off += 4
		if n.leaf {
			n.vals = append(n.vals, v)
		} else {
			n.children = append(n.children, v)
		}
	}
	if off != len(pl) {
		return nil, &ErrPageCorrupt{ID: pageID(buf), Reason: "trailing payload bytes"}
	}
	return n, nil
}

// encodeNode seals n into buf (PageSize bytes, fully overwritten) under
// id. A node whose entries exceed PayloadSize is reported as an error —
// the split logic keeps nodes within bounds, so this is a guard against
// writing past the fixed buffer, never an expected path.
func encodeNode(n *node, id uint32, buf []byte) error {
	pl := buf[HeaderSize : PageSize-FooterSize]
	off := 0
	typ := PageLeaf
	if !n.leaf {
		typ = PageInternal
		binary.BigEndian.PutUint32(pl[0:4], n.children[0])
		off = 4
	}
	for i, k := range n.keys {
		if off+entryOverhead+len(k) > len(pl) {
			return fmt.Errorf("pagestore: node for page %d overflows payload: %d keys need > %d bytes", id, len(n.keys), len(pl))
		}
		binary.BigEndian.PutUint16(pl[off:off+2], uint16(len(k)))
		off += 2
		copy(pl[off:], k)
		off += len(k)
		v := uint32(0)
		if n.leaf {
			v = n.vals[i]
		} else {
			v = n.children[i+1]
		}
		binary.BigEndian.PutUint32(pl[off:off+4], v)
		off += 4
	}
	clear(pl[off:])
	Seal(buf, id, typ, len(n.keys), off)
	return nil
}

// checkEncoding verifies a node against the page just encoded from it:
// the incrementally maintained size is the payload length, and decoding
// the page gives the node back. The pager runs it on every writeback
// under the `invariants` build tag.
func checkEncoding(n *node, buf []byte) error {
	if used := pageUsed(buf); used != n.size {
		return fmt.Errorf("pagestore: page %d: node size %d, encoded payload %d", pageID(buf), n.size, used)
	}
	d, err := decodeNode(buf)
	if err != nil {
		return err
	}
	if d.leaf != n.leaf || !slices.EqualFunc(d.keys, n.keys, bytes.Equal) ||
		!slices.Equal(d.vals, n.vals) || !slices.Equal(d.children, n.children) {
		return fmt.Errorf("pagestore: page %d does not decode to the node it was encoded from", pageID(buf))
	}
	return nil
}

// Tree is a B-tree over a shared pager, keyed by raw bytes with uint32
// values. Updates are copy-on-write once per snapshot: a page this Tree
// allocated since it was created, cloned or last sealed (the owned set)
// is reachable from no other root, so Insert and Delete mutate its
// cached node in place — no copy, no new page id, no parent change
// unless a split or an unlink alters the parent. Any other page on the
// path is first copied into a fresh owned page and its parent
// re-pointed, up to the root. Clone is therefore O(1) — share the
// pager, take the root, empty both owned sets — which lets the snapshot
// layer keep one immutable tree per published snapshot.
//
// Synchronisation: clones share one pager, so a reader's fault can
// evict — and so encode — a writer's dirty page. Every mutation and
// every encode of a cached node therefore happens under the pager's
// mutex, which Insert and Delete hold for the whole operation. Readers
// (Get, Scan*) take it per page and read the node after releasing it:
// a page a reader can reach is owned by no writer, so it never changes
// again. Even under the mutex a mutation keeps no node across a call
// that can evict; it re-fetches a parent by id once the child returns.
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
func NewTree(pg *Pager) *Tree { return LoadTree(pg, 0, 0) }

// LoadTree attaches to a committed root.
func LoadTree(pg *Pager, root uint32, count int) *Tree {
	return &Tree{pg: pg, root: root, count: count, owned: map[uint32]bool{}}
}

// Root returns the current root page id (0 when empty).
func (t *Tree) Root() uint32 { return t.root }

// Count returns the number of entries.
func (t *Tree) Count() int { return t.count }

// Clone returns an independent tree sharing pg and the current root.
// Either side may keep mutating; path copying keeps the other's view
// intact. Cloning seals the receiver too: pages it allocated are now
// reachable from the clone's root, so neither side may mutate them in
// place anymore.
func (t *Tree) Clone() *Tree {
	t.Sealed()
	return LoadTree(t.pg, t.root, t.count)
}

// Sealed drops ownership of every page allocated so far: called after
// a flush commits them, so later mutations path-copy instead of
// changing committed pages in place.
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
	n := e.node
	return t.newPage(&node{leaf: n.leaf, size: n.size, keys: roomy(n.keys), vals: roomy(n.vals), children: roomy(n.children)})
}

// searchKeys returns the first index i with key <= keys[i], and
// whether keys[i] is key.
func searchKeys(keys [][]byte, key []byte) (int, bool) {
	return slices.BinarySearchFunc(keys, key, bytes.Compare)
}

// childIndex picks the child covering key in an internal node: the
// separator at index i is the smallest key of child i+1.
func childIndex(keys [][]byte, key []byte) int {
	return sort.Search(len(keys), func(i int) bool { return bytes.Compare(key, keys[i]) < 0 })
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) (uint32, bool, error) {
	for id := t.root; id != 0; {
		n, err := t.pg.node(id)
		if err != nil {
			return 0, false, err
		}
		if n.leaf {
			i, ok := searchKeys(n.keys, key)
			if !ok {
				return 0, false, nil
			}
			return n.vals[i], true, nil
		}
		id = n.children[childIndex(n.keys, key)]
	}
	return 0, false, nil
}

// split divides an over-full node in two at the boundary that halves
// its encoded payload by bytes rather than by entry count: with skewed
// key sizes a count split can leave one half over PayloadSize. An
// over-full node exceeds PayloadSize by at most one MaxKeySize entry
// (splits happen immediately after the insert that overflowed), so byte
// balance guarantees both halves fit. Both halves stay non-empty.
//
// It returns the right half plus the separator key to install in the
// parent. A leaf keeps every entry — the separator is the right half's
// smallest key, which stays in that leaf — while an internal node
// pushes the boundary key up: it moves into the parent and is kept by
// neither half, so each child page stays reachable from exactly one
// side.
func split(n *node) (*node, []byte) {
	total := n.size
	if !n.leaf {
		total -= 4
	}
	h, left := 1, n.entrySize(0) // left = bytes of entries [0, h)
	for ; 2*left < total && h < len(n.keys)-1; h++ {
		left += n.entrySize(h)
	}
	right := &node{leaf: n.leaf}
	var sep []byte
	if n.leaf {
		right.keys, right.vals = roomy(n.keys[h:]), roomy(n.vals[h:])
		right.size, n.size = n.size-left, left
		sep = right.keys[0]
	} else {
		sep = n.keys[h]
		right.keys, right.children = roomy(n.keys[h+1:]), roomy(n.children[h+1:])
		right.size, n.size = n.size-left-n.entrySize(h), 4+left
		n.children = n.children[:h+1]
	}
	clear(n.keys[h:]) // the left half must not pin the right half's keys
	n.keys = n.keys[:h]
	if n.leaf {
		n.vals = n.vals[:h]
	}
	return right, sep
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
		e, err := t.newPage(&node{leaf: true})
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
		e, err := t.newPage(&node{keys: [][]byte{sep}, children: []uint32{id, right}, size: 4 + entryOverhead + len(sep)})
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
// updated node — id itself unless the page had to be copied — plus a
// separator and right-sibling id when the node split.
//
// vet:holds t.pg.mu
func (t *Tree) insert(id uint32, key []byte, val uint32) (newID uint32, sep []byte, rightID uint32, added bool, err error) {
	e, err := t.pg.getLocked(id)
	if err != nil {
		return 0, nil, 0, false, err
	}
	n := e.node
	if n.leaf {
		i, ok := searchKeys(n.keys, key)
		if e, err = t.mutable(e, nil); err != nil {
			return 0, nil, 0, false, err
		}
		n = e.node
		if ok {
			n.vals[i] = val
		} else {
			added = true
			n.insertKey(i, bytes.Clone(key))
			n.vals = slices.Insert(n.vals, i, val)
		}
	} else {
		ci := childIndex(n.keys, key)
		child := n.children[ci]
		childNew, childSep, childRight, childAdded, err := t.insert(child, key, val)
		if err != nil || (childNew == child && childSep == nil) {
			return id, nil, 0, childAdded, err
		}
		// The descent may have evicted this page: fetch it again
		// rather than trust e.
		if e, err = t.mutable(t.pg.getLocked(id)); err != nil {
			return 0, nil, 0, false, err
		}
		n, added = e.node, childAdded
		n.children[ci] = childNew
		if childSep != nil {
			n.insertKey(ci, childSep)
			n.children = slices.Insert(n.children, ci+1, childRight)
		}
	}
	var right *node
	if n.size > PayloadSize && len(n.keys) > 1 {
		right, sep = split(n)
		sep = bytes.Clone(sep) // a parent must not pin this page's payload
	}
	t.pg.markDirtyLocked(e)
	if right != nil {
		r, err := t.newPage(right)
		if err != nil {
			return 0, nil, 0, false, err
		}
		rightID = r.id
	}
	return e.id, sep, rightID, added, nil
}

// insertKey opens slot i of n.keys for key (whose bytes n keeps).
func (n *node) insertKey(i int, key []byte) {
	n.keys = slices.Insert(n.keys, i, key)
	n.size += entryOverhead + len(key)
}

// deleteKey drops slot i of n.keys.
func (n *node) deleteKey(i int) {
	n.size -= n.entrySize(i)
	n.keys = slices.Delete(n.keys, i, i+1)
}

// Delete removes key, reporting whether it was present. Underflowing
// nodes are not rebalanced — deletes only shrink a page until it
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
		if e.node.leaf || len(e.node.children) > 1 {
			break
		}
		t.root = e.node.children[0]
	}
	return true, nil
}

// delete descends into page id and returns the id now holding the
// updated node, or 0 when the delete emptied it.
//
// vet:holds t.pg.mu
func (t *Tree) delete(id uint32, key []byte) (newID uint32, removed bool, err error) {
	e, err := t.pg.getLocked(id)
	if err != nil {
		return 0, false, err
	}
	n := e.node
	if n.leaf {
		i, ok := searchKeys(n.keys, key)
		if !ok {
			return id, false, nil
		}
		if len(n.keys) == 1 {
			return 0, true, nil
		}
		if e, err = t.mutable(e, nil); err != nil {
			return 0, false, err
		}
		n = e.node
		n.deleteKey(i)
		n.vals = slices.Delete(n.vals, i, i+1)
		t.pg.markDirtyLocked(e)
		return e.id, true, nil
	}
	ci := childIndex(n.keys, key)
	child := n.children[ci]
	childNew, removed, err := t.delete(child, key)
	if err != nil || !removed || childNew == child {
		return id, removed, err
	}
	if childNew == 0 && len(n.children) == 1 {
		return 0, true, nil
	}
	// As in insert: the descent may have evicted this page.
	if e, err = t.mutable(t.pg.getLocked(id)); err != nil {
		return 0, false, err
	}
	n = e.node
	if childNew != 0 {
		n.children[ci] = childNew
	} else {
		// Unlink the emptied child and the separator beside it (a
		// single-child node left by earlier unlinks has no separator).
		if len(n.keys) > 0 {
			n.deleteKey(min(ci, len(n.keys)-1))
		}
		n.children = slices.Delete(n.children, ci, ci+1)
	}
	t.pg.markDirtyLocked(e)
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
	type frame struct {
		n   *node
		idx int
	}
	var stack []frame
	// descend pushes the path from page id down to a leaf: towards
	// from on the first call, leftmost on every later one.
	descend := func(id uint32) error {
		for id != 0 {
			n, err := t.pg.node(id)
			if err != nil {
				return err
			}
			i := 0
			if n.leaf {
				if from != nil {
					i, _ = searchKeys(n.keys, from)
				}
				id = 0
			} else {
				if from != nil {
					i = childIndex(n.keys, from)
				}
				id = n.children[i]
			}
			stack = append(stack, frame{n, i})
		}
		from = nil
		return nil
	}
	if err := descend(t.root); err != nil {
		return err
	}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.n.leaf {
			for ; top.idx < len(top.n.keys); top.idx++ {
				if !fn(top.n.keys[top.idx], top.n.vals[top.idx]) {
					return nil
				}
			}
			stack = stack[:len(stack)-1]
			continue
		}
		top.idx++
		if top.idx >= len(top.n.children) {
			stack = stack[:len(stack)-1]
		} else if err := descend(top.n.children[top.idx]); err != nil {
			return err
		}
	}
	return nil
}

// ScanPrefix walks entries whose key starts with prefix, in key order.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key []byte, val uint32) bool) error {
	return t.ScanFrom(prefix, func(k []byte, v uint32) bool {
		return bytes.HasPrefix(k, prefix) && fn(k, v)
	})
}
