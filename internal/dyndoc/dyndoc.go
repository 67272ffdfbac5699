// Package dyndoc binds a labeling scheme and a query index into one
// live document — the end-to-end system the CDBS paper motivates: keep
// querying a document while it is being edited, with the dynamic
// schemes never re-labeling a node.
//
// A Document holds no XML tree of its own. The labeling's structural
// mirror (scheme.Tree) is the tree; what it does not carry — element
// names, text data, attribute names and values — lives in id-indexed
// columns that are written once per id, names as codes into a symbol
// table the document shares with its clones. Every edit updates two things
// in lock step: the labeling, and the document-ordered element index
// the query engine joins over. The index lives behind the
// store.Backend interface: the default slice backend keeps
// document-ordered id lists in memory (insertions binary-search on the
// labeling's Before predicate), and the paged backend keeps them in
// B-trees over checksummed 4 KB pages keyed by order-preserving label
// bytes, for documents whose index should not live on the heap.
package dyndoc

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cow"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/store"
	"repro/internal/symtab"
	"repro/internal/xmltree"
	"repro/internal/xpath"
	"repro/internal/xpath/plan"
)

// Edit and query volume metrics for the live-document tier.
var (
	mInserts   = metrics.Default.Counter("dyndoc_inserts_total")
	mDeletes   = metrics.Default.Counter("dyndoc_deletes_total")
	mQueries   = metrics.Default.Counter("dyndoc_queries_total")
	mRelabeled = metrics.Default.Counter("dyndoc_relabeled_total")
	// Inserts refused because the new label would not fit the index.
	mLabelTooLong = metrics.Default.Counter("dyndoc_label_too_long_total")
	// Where an open's time goes. NewWithStore observes label and index;
	// whoever parsed the text first reports it with ObserveOpenParse.
	mOpenParse = metrics.Default.Histogram("dynxml_open_parse_seconds", nil)
	mOpenLabel = metrics.Default.Histogram("dynxml_open_label_seconds", nil)
	mOpenIndex = metrics.Default.Histogram("dynxml_open_index_seconds", nil)
)

// ObserveOpenParse records how long the parse that began at start took.
func ObserveOpenParse(start time.Time) { mOpenParse.Observe(time.Since(start).Seconds()) }

// Document is a live, labeled, queryable XML document.
//
// Every node has one code in codes: an element's is its name's symbol
// in syms, a text or attribute node's is leafCode with the index of
// its content in leaves. Both columns are written once per id and never
// again, so a document and its clones share them (cow.Column), and the
// whole family shares syms, which only grows.
type Document struct {
	lab    scheme.Labeling
	syms   *symtab.Table      // element and attribute names; Clone shares it
	codes  cow.Column[uint32] // by id: an element's name symbol, or leafCode|i for leaves[i]
	leaves cow.Column[leaf]   // text and attribute nodes, by value, in the order they were added

	idx     store.Backend // live element index in document order
	ordered bool          // scheme.Ordered(lab), asked once: the scheme's labels can key a paged index

	relabeled int64 // cumulative re-labels caused by edits

	eng   xpath.Engine // over lab, d's names and idx as they are now (bind)
	cache *plan.Cache  // plans and results, of d and of everything cloned from it

	// Edit tokens, which tell the cache what an answer outlives: born
	// is d's construction, lastEdit its last edit of any kind, and
	// versions, by symbol, the last edits that touched each name (see
	// tokens). A clone inherits them and copies versions, σ × 16 B.
	born, lastEdit uint64
	versions       []tokens
}

// tokens is what versions keeps for one name: the last edit that
// inserted or deleted an element so called, and the last that inserted
// or deleted a child of one — its child list, which a read set spells
// "/name" (plan.ReadSet). Zero is no edit.
type tokens struct{ name, kids uint64 }

// editTokens numbers the edits and constructions of every document in
// the process; an edit draws its token before it mutates anything. A
// query's stamp is the largest token among the names and child lists it
// reads: the last edit that touched one. Two documents that compute the
// same stamp both descend, by Clone, from the document that made that
// edit, and neither has touched those since — it would have drawn a larger token —
// so both hold under them what that edit left. With a counter per
// document, divergent clones would draw one token twice.
var editTokens atomic.Uint64

// NameToken implements xpath.Versions; every edit is later than born.
func (d *Document) NameToken(read string) uint64 {
	name, kids := strings.CutPrefix(read, "/")
	sym, ok := d.syms.Lookup(name)
	if !ok {
		return d.born
	}
	v := d.version(sym)
	if kids {
		return max(d.born, v.kids)
	}
	return max(d.born, v.name)
}

// version returns the tokens of the name whose symbol is sym. A symbol
// at or past versions' end names nothing d has touched: a divergent
// clone interned it after d forked, or no edit has reached it yet.
func (d *Document) version(sym uint32) tokens {
	if int(sym) < len(d.versions) {
		return d.versions[sym]
	}
	return tokens{}
}

// touch returns the tokens of the name whose symbol is sym, for the
// running edit to stamp, growing versions to the whole table first if
// it stops short of sym.
func (d *Document) touch(sym uint32) *tokens {
	if int(sym) >= len(d.versions) {
		d.versions = append(d.versions, make([]tokens, d.syms.Len()-len(d.versions))...)
	}
	return &d.versions[sym]
}

// touchChildren gives the child list of the element parent the running
// edit's token: an insert under parent, or the delete of a child of it.
func (d *Document) touchChildren(parent int) {
	d.touch(d.codes.At(parent)).kids = d.lastEdit
}

// bind points d's engine at d's own names and at its labeling and index
// as they are now; whatever replaces one of the two calls it.
func (d *Document) bind() {
	d.eng = *xpath.NewEngineOver(d.lab, d, d.idx).Versioned(d)
}

// leafCode flags a code that indexes leaves instead of naming an
// element. Symbols stay below it (symtab.MaxCodes), and so do leaf
// indexes: a document adds at most 2^31 text and attribute nodes over
// its life.
const leafCode = symtab.MaxCodes

// leaf is the immutable content of a non-element node: character
// data, or an attribute's name and value.
type leaf struct {
	data string // the character data or the attribute's value
	name uint32 // an attribute's name symbol
	attr bool
}

// leafOf returns the content of the text or attribute node n, whose
// name, if it has one, is the symbol sym.
func leafOf(n *xmltree.Node, sym uint32) leaf {
	return leaf{data: n.Data, name: sym, attr: n.Kind == xmltree.Attr}
}

// intern interns the names in the fragment under n, in preorder. It is
// how an insert refuses a bad name (symtab.ErrBadName) before anything
// is labeled; a name it interned for an insert that fails later stays
// in the table, unused.
func (d *Document) intern(n *xmltree.Node) error {
	if n.Kind != xmltree.Text {
		if _, err := d.syms.Intern(n.Name); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := d.intern(c); err != nil {
			return err
		}
	}
	return nil
}

// symbol is the symbol intern gave n's name, 0 for a text node.
func (d *Document) symbol(n *xmltree.Node) (sym uint32) {
	if n.Kind != xmltree.Text {
		sym, _ = d.syms.Lookup(n.Name)
	}
	return sym
}

// StoreFactory builds a storage backend over a binding; it
// parameterizes which backend a document's index lives in. Nil means
// the in-memory slice backend.
type StoreFactory func(store.Binding) (store.Backend, error)

// ErrBadNode reports an id that is out of range or deleted.
var ErrBadNode = errors.New("dyndoc: bad node id")

// binding is what d's index backend needs from d: d itself, a
// store.Doc, which allocates nothing.
func (d *Document) binding() store.Binding { return store.Binding{Doc: d} }

// Before implements store.Doc: the labeling's document order.
func (d *Document) Before(a, b int) bool { return d.lab.Before(a, b) }

// AppendKey implements store.Doc with the labeling's ordered label
// bytes.
func (d *Document) AppendKey(dst []byte, id int) ([]byte, error) {
	if !d.ordered {
		return nil, store.ErrNoOrderedKeys
	}
	return d.lab.AppendOrderedLabel(dst, id)
}

// AppendElems implements store.Doc with liveElems.
func (d *Document) AppendElems(dst []int) []int { return d.liveElems(dst) }

// Symbols implements store.Doc: the family's symbol table.
func (d *Document) Symbols() *symtab.Table { return d.syms }

// New labels doc with the given builder and indexes it in the default
// in-memory slice backend. It reads doc once and keeps no reference to
// it.
func New(doc *xmltree.Document, build scheme.Builder) (*Document, error) {
	return NewWithStore(doc, build, nil)
}

// NewWithStore is New with an explicit storage backend for the element
// index. build should label for a live document (registry's
// Entry.Live); the Children a builder for use alone lays over the tree
// are dropped.
func NewWithStore(doc *xmltree.Document, build scheme.Builder, factory StoreFactory) (*Document, error) {
	start := time.Now()
	lab, err := build(doc)
	if err != nil {
		return nil, err
	}
	lab.Tree().Adopt()
	labelled := time.Now()
	mOpenLabel.Observe(labelled.Sub(start).Seconds())
	if factory == nil {
		factory = func(b store.Binding) (store.Backend, error) { return store.NewSlice(b), nil }
	}
	n := lab.Tree().Cap() // the builder's count of doc's nodes
	syms := symtab.New()
	codes, nelems := make([]uint32, n), 0
	// Almost every name repeats one met before: a lookup in seen costs
	// less than an Intern's in the table's sync.Map.
	seen := make(map[string]uint32)
	doc.Walk(func(id int, node *xmltree.Node, _, _ int) {
		if node.Kind == xmltree.Element {
			nelems++
		}
		if node.Kind == xmltree.Text || err != nil {
			return
		}
		c, ok := seen[node.Name]
		if !ok {
			if c, err = syms.Intern(node.Name); err != nil {
				return
			}
			seen[node.Name] = c
		}
		codes[id] = c
	})
	if err != nil {
		return nil, err
	}
	// A column's Bytes charges its array's length, and the index keeps
	// elems as the array its lists are carved from, so both are sized
	// exactly: the walk above counted the elements, this one fills them.
	elems, leaves := make([]int, 0, nelems), make([]leaf, 0, n-nelems)
	doc.Walk(func(id int, node *xmltree.Node, _, _ int) {
		if node.Kind == xmltree.Element {
			elems = append(elems, id)
		} else {
			leaves = append(leaves, leafOf(node, codes[id]))
			codes[id] = leafCode | uint32(len(leaves)-1)
		}
	})
	d := &Document{
		lab:      lab,
		syms:     syms,
		codes:    cow.NewColumn(codes),
		leaves:   cow.NewColumn(leaves),
		ordered:  scheme.Ordered(lab),
		cache:    plan.NewCache(),
		born:     editTokens.Add(1),
		versions: make([]tokens, syms.Len()),
	}
	d.lastEdit = d.born
	if d.idx, err = factory(d.binding()); err != nil {
		return nil, err
	}
	if err := d.idx.Build(elems, d.NameOf); err != nil {
		_ = d.idx.Close()
		return nil, err
	}
	d.limitLabels()
	d.bind()
	mOpenIndex.Observe(time.Since(labelled).Seconds())
	return d, nil
}

// limitLabels has the labeling refuse, while it is still harmless, any
// insert whose label the index could not key.
func (d *Document) limitLabels() { d.lab.LimitLabel(d.idx.Stats().MaxLabel) }

// refused counts err if it is a label-length refusal, and returns it.
func refused(err error) error {
	if errors.Is(err, scheme.ErrLabelTooLong) {
		mLabelTooLong.Inc()
	}
	return err
}

// NameOf is Name without the liveness check: the element name recorded
// for id, "" for a text or attribute node and for an id out of range.
// It is the one place a name is read from d's columns: the query engine
// (as its xpath.Names), the index and watch read names through it.
func (d *Document) NameOf(id int) string {
	if uint(id) >= uint(d.codes.Len()) {
		return ""
	}
	c := d.codes.At(id)
	if c&leafCode != 0 {
		return ""
	}
	return d.syms.Name(c)
}

// isElement reports whether id, which must be in range, is an element.
func (d *Document) isElement(id int) bool { return d.codes.At(id)&leafCode == 0 }

// Store exposes the element index backend (for its stats, its degraded
// read error and its close by the ownership layer).
func (d *Document) Store() store.Backend { return d.idx }

// liveElems appends the live element ids in current document order to
// dst, from a walk of the labeling's structural mirror (not from the
// index — this is what rebuilds the index, and what the slice backend
// answers a * name test from).
func (d *Document) liveElems(dst []int) []int {
	tr := d.lab.Tree()
	var walk func(v int)
	walk = func(v int) {
		if d.isElement(v) {
			dst = append(dst, v)
		}
		for _, c := range tr.Kids(v) {
			walk(c)
		}
	}
	if d.codes.Len() > 0 {
		walk(0) // the root: see XML
	}
	return dst
}

// rebuildIndex reconstructs the index from the labeling, used after
// re-labeling (stored label keys went stale) or after an index write
// error left it incomplete.
func (d *Document) rebuildIndex() error {
	return d.idx.Build(d.liveElems(nil), d.NameOf)
}

// addToIndex registers one new element, falling back to a full rebuild
// if the incremental add fails (a paged I/O error leaves the index
// missing entries; the rebuild restores consistency or surfaces the
// fault). A label the index cannot key is not such a failure — the
// rebuild would meet the same label — and comes back as
// scheme.ErrLabelTooLong, should LimitLabel ever let one this far.
func (d *Document) addToIndex(name string, id int) error {
	if err := d.idx.Add(name, id); err != nil {
		if errors.Is(err, store.ErrLabelTooLong) {
			return refused(fmt.Errorf("dyndoc: %w: %v", scheme.ErrLabelTooLong, err))
		}
		if rerr := d.rebuildIndex(); rerr != nil {
			return fmt.Errorf("dyndoc: index add failed (%v) and rebuild failed: %w", err, rerr)
		}
	}
	return nil
}

// Parse is New over XML text.
func Parse(text string, build scheme.Builder) (*Document, error) {
	doc, err := xmltree.ParseString(text)
	if err != nil {
		return nil, err
	}
	return New(doc, build)
}

// Labeling exposes the underlying labeling.
func (d *Document) Labeling() scheme.Labeling { return d.lab }

// Len returns the live node count (elements and text).
func (d *Document) Len() int { return d.lab.Len() }

// Relabeled returns the cumulative number of existing nodes whose
// labels changed across all edits — zero forever under the dynamic
// schemes.
func (d *Document) Relabeled() int64 { return d.relabeled }

// LongestLabel returns the length in bytes of the longest ordered
// label the document has ever assigned — the figure to hold against
// the index's store.Stats.MaxLabel — or zero under a scheme without
// ordered labels.
func (d *Document) LongestLabel() int { return d.lab.LongestLabel() }

// Name returns the element name of a live node id ("" for text).
func (d *Document) Name(id int) (string, error) {
	if !d.lab.Tree().Alive(id) {
		return "", fmt.Errorf("%w: %d", ErrBadNode, id)
	}
	return d.NameOf(id), nil
}

// XML serialises the current document, byte for byte as
// xmltree.Document.String renders the same tree.
func (d *Document) XML() string {
	var sb strings.Builder
	// Ids are document order at build time and the root cannot be
	// deleted, so it is always id 0.
	if err := d.writeXML(&sb, 0); err != nil {
		return "<!-- " + err.Error() + " -->"
	}
	return sb.String()
}

// leafAt returns the content of node id and true, or false for an
// element.
func (d *Document) leafAt(id int) (leaf, bool) {
	c := d.codes.At(id)
	if c&leafCode == 0 {
		return leaf{}, false
	}
	return d.leaves.At(int(c &^ leafCode)), true
}

// attrAt returns the attribute node id, or false for any other node.
func (d *Document) attrAt(id int) (leaf, bool) {
	lf, ok := d.leafAt(id)
	return lf, ok && lf.attr
}

func (d *Document) writeXML(sb *strings.Builder, id int) error {
	if lf, ok := d.leafAt(id); ok {
		if lf.attr {
			return fmt.Errorf("xmltree: attribute node %q outside an element", d.syms.Name(lf.name))
		}
		return xml.EscapeText(sb, []byte(lf.data))
	}
	name := d.NameOf(id)
	sb.WriteString("<" + name)
	rest := d.lab.Tree().Kids(id)
	for len(rest) > 0 {
		a, ok := d.attrAt(rest[0])
		if !ok {
			break
		}
		sb.WriteString(" " + d.syms.Name(a.name) + `="`)
		if err := xml.EscapeText(sb, []byte(a.data)); err != nil {
			return err
		}
		sb.WriteString(`"`)
		rest = rest[1:]
	}
	sb.WriteString(">")
	for _, c := range rest {
		if a, ok := d.attrAt(c); ok {
			return fmt.Errorf("xmltree: attribute %q after non-attribute children of <%s>", d.syms.Name(a.name), name)
		}
		if err := d.writeXML(sb, c); err != nil {
			return err
		}
	}
	sb.WriteString("</" + name + ">")
	return nil
}

// validateInsert checks an insert's target before the labeling is
// touched, so a rejected insert mutates nothing. Positions count
// text-node children too: the labeling's Tree mirrors every node.
func (d *Document) validateInsert(parent, pos int) error {
	tr := d.lab.Tree()
	if !tr.Alive(parent) {
		return fmt.Errorf("%w: parent %d", ErrBadNode, parent)
	}
	if !d.isElement(parent) {
		return fmt.Errorf("%w: parent %d is not an element", ErrBadNode, parent)
	}
	if n := len(tr.Kids(parent)); pos < 0 || pos > n {
		return fmt.Errorf("dyndoc: child position %d out of range [0,%d]", pos, n)
	}
	return nil
}

// recordElement fills the columns for the id a label insert just
// allocated (ids are dense, so it is the next slot) with an element
// whose name is the symbol sym. The name takes the running edit's token,
// and the element enters the index unless skipIndex.
func (d *Document) recordElement(id int, sym uint32, skipIndex bool) error {
	d.codes.Append(sym)
	d.touch(sym).name = d.lastEdit
	if skipIndex {
		return nil
	}
	return d.addToIndex(d.syms.Name(sym), id)
}

// recordTree fills the columns for frag's nodes, whose ids are given in
// preorder and whose names intern has interned: elements as
// recordElement does, text and attribute nodes labeled but not
// queryable, matching the bulk construction path. An index failure does
// not stop the walk — the columns must cover every id the labeling
// allocated — but it is the last index write attempted, and it is
// returned.
func (d *Document) recordTree(ids []int, frag *xmltree.Node, skipIndex bool) error {
	var failed error
	at := 0
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if n.Kind == xmltree.Element {
			if err := d.recordElement(ids[at], d.symbol(n), skipIndex || failed != nil); err != nil {
				failed = err
			}
		} else {
			d.codes.Append(leafCode | uint32(d.leaves.Len()))
			d.leaves.Append(leafOf(n, d.symbol(n)))
		}
		at++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(frag)
	return failed
}

// InsertElement inserts a fresh element called name as the pos-th
// child of parent. It returns the new node's id and how many existing
// nodes were re-labeled (zero under the dynamic schemes).
func (d *Document) InsertElement(parent, pos int, name string) (int, int, error) {
	if err := d.validateInsert(parent, pos); err != nil {
		return 0, 0, err
	}
	sym, err := d.syms.Intern(name)
	if err != nil {
		return 0, 0, err
	}
	d.lastEdit = editTokens.Add(1)
	d.touchChildren(parent)
	id, relabeled, err := d.lab.InsertChildAt(parent, pos)
	if err != nil {
		return 0, 0, refused(err)
	}
	d.relabeled += int64(relabeled)
	mInserts.Inc()
	mRelabeled.Add(int64(relabeled))
	rebuild := d.rebuildAfter(relabeled)
	if err := d.recordElement(id, sym, rebuild); err != nil {
		return 0, 0, err
	}
	if rebuild {
		if err := d.rebuildIndex(); err != nil {
			return 0, 0, err
		}
	}
	return id, relabeled, nil
}

// rebuildAfter reports whether an edit that re-labeled existing nodes
// must rebuild the index: label-keyed backends (paged) hold stale keys
// then, and the rebuild covers the new nodes too.
func (d *Document) rebuildAfter(relabeled int) bool {
	return relabeled > 0 && d.idx.Name() != "slice"
}

// doomedSet is what DeleteSubtree hands Backend.Remove, which keeps
// neither: the doomed ids and a name lookup, bound to the set once, when
// the pool makes it, so that a delete builds no method value. d is the
// deleting document while Remove runs and nil while the set is pooled.
type doomedSet struct {
	ids    map[int]bool
	d      *Document
	nameOf func(int) string
}

// doomedSets recycles the doomed sets: a served delete, on a fresh
// clone, builds no map or closure of its own.
var doomedSets = sync.Pool{New: func() any {
	s := &doomedSet{ids: map[int]bool{}}
	s.nameOf = func(id int) string { return s.d.NameOf(id) }
	return s
}}

// DeleteSubtree removes the node id and its descendants from the
// labeling and the index. It returns the number of removed
// nodes.
func (d *Document) DeleteSubtree(id int) (int, error) {
	tr := d.lab.Tree()
	if !tr.Alive(id) {
		return 0, fmt.Errorf("%w: %d", ErrBadNode, id)
	}
	if tr.Parent(id) == -1 {
		return 0, errors.New("dyndoc: cannot delete the document root")
	}
	// Collect the subtree ids before the structural removal; every
	// doomed element's name takes the edit's token, and so does the
	// child list the root leaves.
	d.lastEdit = editTokens.Add(1)
	d.touchChildren(tr.Parent(id))
	doomed := doomedSets.Get().(*doomedSet)
	doomed.d = d
	defer func() {
		clear(doomed.ids)
		doomed.d = nil
		doomedSets.Put(doomed)
	}()
	var collect func(v int)
	collect = func(v int) {
		doomed.ids[v] = true
		if d.isElement(v) {
			d.touch(d.codes.At(v)).name = d.lastEdit
		}
		for _, c := range tr.Kids(v) {
			collect(c)
		}
	}
	collect(id)
	// Drop the doomed nodes from the index BEFORE deleting their
	// labels: label-keyed backends compute each node's tree key from
	// its still-live label. A failed incremental removal falls back to
	// a rebuild — but only after the labels are gone, so the rebuild
	// sees only surviving nodes.
	removeErr := d.idx.Remove(doomed.ids, doomed.nameOf)
	removed, err := d.lab.DeleteSubtree(id)
	if err != nil {
		return 0, err
	}
	if removeErr != nil {
		if rerr := d.rebuildIndex(); rerr != nil {
			return 0, fmt.Errorf("dyndoc: index remove failed (%v) and rebuild failed: %w", removeErr, rerr)
		}
	}
	mDeletes.Inc()
	return removed, nil
}

// Query evaluates an absolute path expression over the current
// document state and returns matching ids in document order. Like
// every query method it goes through the planner and the result cache,
// which has the answer unless an edit since it was computed inserted
// or deleted an element the query reads. The ids are the cached answer,
// shared and read-only (plan.Cache.Eval): call slices.Clone to own them.
func (d *Document) Query(q *xpath.Query) ([]int, error) {
	mQueries.Inc()
	return d.cache.Eval(&d.eng, d.lastEdit, q)
}

// stamp is what the result cache stores an answer under, for a query
// whose read set (plan.ReadSet) is reads: while it stays the same, so
// does the answer.
func (d *Document) stamp(reads []string) uint64 { return d.eng.Stamp(reads, d.lastEdit) }

// Explain plans and evaluates a path expression with instrumentation
// and returns the EXPLAIN report, which says whether the result cache
// held the answer.
func (d *Document) Explain(path string) (*plan.Report, error) {
	q, err := xpath.Parse(path)
	if err != nil {
		return nil, err
	}
	return d.cache.Explain(&d.eng, d.lastEdit, q)
}

// QueryString parses and evaluates a path expression; a result-cache
// hit parses, copies and allocates nothing. The ids are shared and
// read-only, as Query's are: call slices.Clone to own them.
func (d *Document) QueryString(path string) ([]int, error) {
	mQueries.Inc()
	return d.cache.EvalString(&d.eng, d.lastEdit, path)
}

// Count returns the number of matches for a path expression.
func (d *Document) Count(path string) (int, error) {
	ids, err := d.QueryString(path)
	return len(ids), err
}

// QueryRendered is r.Render(ids) for the ids QueryString returns,
// memoised with the cached result. The bytes are shared — read, never
// written — and r is bound by plan.Cache.Rendered's contract.
func (d *Document) QueryRendered(path string, r plan.Rendering) ([]byte, error) {
	mQueries.Inc()
	return d.cache.Rendered(&d.eng, d.lastEdit, path, r)
}

// MemoryFootprint estimates d's resident bytes: its columns, the symbol
// table and the labeling's mirror and labels at what they have
// allocated, and what the index backend and the query cache report.
func (d *Document) MemoryFootprint() int64 {
	return d.codes.Bytes() + d.leaves.Bytes() + d.syms.Bytes() + d.lab.Tree().Bytes() + d.lab.LabelBytes() +
		d.idx.MemoryFootprint() + d.CacheFootprint()
}

// CacheFootprint estimates the bytes the plan/result cache holds.
func (d *Document) CacheFootprint() int64 { return d.cache.MemoryFootprint() }

// InsertTree inserts a copy of the given element fragment as the
// pos-th child of parent, labeling the whole fragment in one batch.
// It returns the new ids in preorder.
func (d *Document) InsertTree(parent, pos int, fragment *xmltree.Node) ([]int, int, error) {
	ids, relabeled, err := d.insertTrees(parent, pos, []*xmltree.Node{fragment})
	if err != nil {
		return nil, 0, err
	}
	return ids[0], relabeled, nil
}
