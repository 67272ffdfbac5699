// Package dyndoc binds a labeling scheme and a query index into one
// live document — the end-to-end system the CDBS paper motivates: keep
// querying a document while it is being edited, with the dynamic
// schemes never re-labeling a node.
//
// A Document holds no XML tree of its own. The labeling's structural
// mirror (scheme.Tree) is the tree; what it does not carry — element
// names, text data, attribute names and values — lives in id-indexed
// columns that are written once per id. Every edit updates two things
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
	"sync/atomic"
	"time"

	"repro/internal/cow"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/store"
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
// names and leaves are written once per id and never again, so a
// document and its clones share those columns (cow.Column).
type Document struct {
	lab    scheme.Labeling
	names  cow.Column[string] // element name by id; "" for text and attribute nodes
	leaves cow.Column[*leaf]  // what a text or attribute node holds, by id; nil for elements

	idx     store.Backend // live element index in document order
	factory StoreFactory  // how to build a fresh backend (rebuilds, conversions)
	ordered bool          // scheme.Ordered(lab), asked once: the scheme's labels can key a paged index

	relabeled int64 // cumulative re-labels caused by edits

	eng   xpath.Engine // over lab, names and idx as they are now (bind)
	cache *plan.Cache  // plans and results, of d and of everything cloned from it

	// Edit tokens, which tell the cache what an answer outlives: born
	// is d's construction, lastEdit its last edit of any kind, and
	// versions[name] the last edit that inserted or deleted an element
	// called name, if any did. A clone inherits them and copies the map.
	born, lastEdit uint64
	versions       map[string]uint64
}

// editTokens numbers the edits and constructions of every document in
// the process; an edit draws its token before it mutates anything. A
// query's stamp is the largest token among the names it reads: the last
// edit that touched one. Two documents that compute the same stamp both
// descend, by Clone, from the document that made that edit, and neither
// has touched those names since — it would have drawn a larger token —
// so both hold under them what that edit left. With a counter per
// document, divergent clones would draw one token twice.
var editTokens atomic.Uint64

// NameToken implements xpath.Versions; every edit is later than born.
func (d *Document) NameToken(name string) uint64 { return max(d.born, d.versions[name]) }

// bind points d's engine at d's own names column and at its labeling
// and index as they are now; whatever replaces one of the two calls it.
func (d *Document) bind() {
	d.eng = *xpath.NewEngineOver(d.lab, &d.names, d.idx).Versioned(d)
}

// leaf is the immutable content of a non-element node: character
// data, or an attribute's name and value.
type leaf struct {
	kind xmltree.Kind
	name string
	data string
}

// leafOf returns the column entry for n: nil for an element.
func leafOf(n *xmltree.Node) *leaf {
	if n.Kind == xmltree.Element {
		return nil
	}
	return &leaf{kind: n.Kind, name: n.Name, data: n.Data}
}

// StoreFactory builds a storage backend over a binding; it
// parameterizes which backend a document's index lives in. Nil means
// the in-memory slice backend.
type StoreFactory func(store.Binding) (store.Backend, error)

// ErrBadNode reports an id that is out of range or deleted.
var ErrBadNode = errors.New("dyndoc: bad node id")

// binding is what d's index backend needs from d: the labeling's
// document order predicate and d's document-order walk always, and the
// order-preserving label bytes when the scheme has them.
func (d *Document) binding() store.Binding {
	b := store.Binding{Before: d.lab.Before, Elems: d.liveElems}
	if d.ordered {
		b.Key = d.lab.AppendOrderedLabel
	}
	return b
}

// New labels doc with the given builder and indexes it in the default
// in-memory slice backend. It reads doc once and keeps no reference to
// it.
func New(doc *xmltree.Document, build scheme.Builder) (*Document, error) {
	return NewWithStore(doc, build, nil)
}

// NewWithStore is New with an explicit storage backend for the element
// index.
func NewWithStore(doc *xmltree.Document, build scheme.Builder, factory StoreFactory) (*Document, error) {
	start := time.Now()
	lab, err := build(doc)
	if err != nil {
		return nil, err
	}
	labelled := time.Now()
	mOpenLabel.Observe(labelled.Sub(start).Seconds())
	if factory == nil {
		factory = func(b store.Binding) (store.Backend, error) { return store.NewSlice(b), nil }
	}
	n := lab.Tree().Cap() // the builder's count of doc's nodes
	names, leaves, elems := make([]string, n), make([]*leaf, n), make([]int, 0, n)
	doc.Walk(func(id int, node *xmltree.Node, _, _ int) {
		if leaves[id] = leafOf(node); leaves[id] == nil {
			names[id] = node.Name
			elems = append(elems, id)
		}
	})
	d := &Document{
		lab:      lab,
		names:    cow.NewColumn(names),
		leaves:   cow.NewColumn(leaves),
		factory:  factory,
		ordered:  scheme.Ordered(lab),
		cache:    plan.NewCache(),
		born:     editTokens.Add(1),
		versions: make(map[string]uint64),
	}
	d.lastEdit = d.born
	if d.idx, err = factory(d.binding()); err != nil {
		return nil, err
	}
	if err := d.idx.Build(elems, d.nameOf); err != nil {
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

// nameOf is the index's view of element names ("" for text nodes).
func (d *Document) nameOf(id int) string {
	if id < 0 || id >= d.names.Len() {
		return ""
	}
	return d.names.At(id)
}

// Store exposes the element index backend (for stats, flushing and
// compaction by the ownership layer).
func (d *Document) Store() store.Backend { return d.idx }

// ConvertStore rebuilds the element index into a backend from the
// given factory, replacing the current one. The document must not be
// queried concurrently. It is how a journal-replayed document (always
// rebuilt on the slice backend) moves onto paged storage.
func (d *Document) ConvertStore(factory StoreFactory) error {
	if factory == nil {
		factory = func(b store.Binding) (store.Backend, error) { return store.NewSlice(b), nil }
	}
	idx, err := factory(d.binding())
	if err != nil {
		return err
	}
	if err := idx.Build(d.liveElems(nil), d.nameOf); err != nil {
		_ = idx.Close()
		return err
	}
	old := d.idx
	d.idx, d.factory = idx, factory
	d.bind()
	d.limitLabels()
	return old.Close()
}

// liveElems appends the live element ids in current document order to
// dst, from a walk of the labeling's structural mirror (not from the
// index — this is what rebuilds the index, and what the slice backend
// answers a * name test from).
func (d *Document) liveElems(dst []int) []int {
	kids := d.lab.Tree().Children
	var walk func(v int)
	walk = func(v int) {
		if d.names.At(v) != "" {
			dst = append(dst, v)
		}
		for _, c := range kids[v] {
			walk(c)
		}
	}
	if d.names.Len() > 0 {
		walk(0) // the root: see XML
	}
	return dst
}

// rebuildIndex reconstructs the index from the labeling, used after
// re-labeling (stored label keys went stale) or after an index write
// error left it incomplete.
func (d *Document) rebuildIndex() error {
	return d.idx.Build(d.liveElems(nil), d.nameOf)
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
	return d.names.At(id), nil
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

func (d *Document) writeXML(sb *strings.Builder, id int) error {
	if lf := d.leaves.At(id); lf != nil {
		if lf.kind == xmltree.Attr {
			return fmt.Errorf("xmltree: attribute node %q outside an element", lf.name)
		}
		return xml.EscapeText(sb, []byte(lf.data))
	}
	name := d.names.At(id)
	sb.WriteString("<" + name)
	rest := d.lab.Tree().Children[id]
	for len(rest) > 0 {
		a := d.leaves.At(rest[0])
		if a == nil || a.kind != xmltree.Attr {
			break
		}
		sb.WriteString(" " + a.name + `="`)
		if err := xml.EscapeText(sb, []byte(a.data)); err != nil {
			return err
		}
		sb.WriteString(`"`)
		rest = rest[1:]
	}
	sb.WriteString(">")
	for _, c := range rest {
		if lf := d.leaves.At(c); lf != nil && lf.kind == xmltree.Attr {
			return fmt.Errorf("xmltree: attribute %q after non-attribute children of <%s>", lf.name, name)
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
	if d.names.At(parent) == "" {
		return fmt.Errorf("%w: parent %d is not an element", ErrBadNode, parent)
	}
	if pos < 0 || pos > len(tr.Children[parent]) {
		return fmt.Errorf("dyndoc: child position %d out of range [0,%d]", pos, len(tr.Children[parent]))
	}
	return nil
}

// recordNode fills the columns for the id a label insert just
// allocated (ids are dense, so it is the next slot): an element called
// name, or the text or attribute node lf. Elements take the running
// edit's token and enter the index unless skipIndex; text and attribute
// nodes are labeled but not queryable, matching the bulk construction
// path.
func (d *Document) recordNode(id int, name string, lf *leaf, skipIndex bool) error {
	d.names.Append(name)
	d.leaves.Append(lf)
	if lf == nil {
		d.versions[name] = d.lastEdit
	}
	if lf != nil || skipIndex {
		return nil
	}
	return d.addToIndex(name, id)
}

// recordTree is recordNode over frag's nodes, whose ids are given in
// preorder. An index failure does not stop the walk — the columns must
// cover every id the labeling allocated — but it is the last index
// write attempted, and it is returned.
func (d *Document) recordTree(ids []int, frag *xmltree.Node, skipIndex bool) error {
	var failed error
	at := 0
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		lf := leafOf(n)
		name := n.Name
		if lf != nil {
			name = ""
		}
		if err := d.recordNode(ids[at], name, lf, skipIndex || failed != nil); err != nil {
			failed = err
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
	if name == "" {
		return 0, 0, errors.New("dyndoc: empty element name")
	}
	d.lastEdit = editTokens.Add(1)
	id, relabeled, err := d.lab.InsertChildAt(parent, pos)
	if err != nil {
		return 0, 0, refused(err)
	}
	d.relabeled += int64(relabeled)
	mInserts.Inc()
	mRelabeled.Add(int64(relabeled))
	rebuild := d.rebuildAfter(relabeled)
	if err := d.recordNode(id, name, nil, rebuild); err != nil {
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
	// doomed element's name takes the edit's token.
	d.lastEdit = editTokens.Add(1)
	doomed := map[int]bool{}
	var collect func(v int)
	collect = func(v int) {
		doomed[v] = true
		if name := d.names.At(v); name != "" {
			d.versions[name] = d.lastEdit
		}
		for _, c := range tr.Children[v] {
			collect(c)
		}
	}
	collect(id)
	// Drop the doomed nodes from the index BEFORE deleting their
	// labels: label-keyed backends compute each node's tree key from
	// its still-live label. A failed incremental removal falls back to
	// a rebuild — but only after the labels are gone, so the rebuild
	// sees only surviving nodes.
	removeErr := d.idx.Remove(doomed, d.nameOf)
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
// or deleted an element the query reads.
func (d *Document) Query(q *xpath.Query) ([]int, error) {
	mQueries.Inc()
	return d.cache.Eval(&d.eng, d.lastEdit, q)
}

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
// hit skips the parse.
func (d *Document) QueryString(path string) ([]int, error) {
	mQueries.Inc()
	return d.cache.EvalString(&d.eng, d.lastEdit, path)
}

// Count returns the number of matches for a path expression; on a
// result-cache hit nothing is parsed, copied or allocated.
func (d *Document) Count(path string) (int, error) {
	mQueries.Inc()
	return d.cache.Count(&d.eng, d.lastEdit, path)
}

// QueryRendered is render(ids) for the ids QueryString returns,
// memoised with the cached result. The bytes are shared — read, never
// written — and render is bound by plan.Cache.Rendered's contract.
func (d *Document) QueryRendered(path string, render func(ids []int) []byte) ([]byte, error) {
	mQueries.Inc()
	return d.cache.Rendered(&d.eng, d.lastEdit, path, render)
}

// MemoryFootprint estimates d's resident bytes: its columns and the
// labeling's mirror and labels at what they have allocated, and what
// the index backend and the query cache report.
func (d *Document) MemoryFootprint() int64 {
	return d.names.Bytes() + d.leaves.Bytes() + d.lab.Tree().Bytes() + d.lab.LabelBytes() +
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
