package xpath

import (
	"fmt"
	"slices"

	"repro/internal/cow"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Engine evaluates queries over one labeled document. Joins walk
// document-ordered node lists and decide every structural relationship
// through the labeling's predicates, so the per-scheme label costs are
// what the evaluation measures. The element-name index and child lists
// are ordinary index structures, identical for every scheme.
//
// An Engine holds no mutable state of its own: Eval only reads the
// labeling and index views it was built over. As long as those stay
// unmodified — e.g. inside one dyndoc snapshot, whose state is frozen
// at publish time — one Engine may be shared and evaluated from any
// number of goroutines concurrently with no locking.
type Engine struct {
	lab   scheme.Labeling
	names *cow.Column[string] // element name by id; "" for other nodes
	idx   Index
	vers  Versions // nil: the engine cannot tell which edits a query outlives
}

// Versions tells an engine how recently its document changed under a
// given element name (see Stamp).
type Versions interface {
	// NameToken returns the token of the last edit that inserted or
	// deleted an element called name, or of the document's construction.
	// Tokens increase with time and no two edits ever share one.
	NameToken(name string) uint64
}

// Index is the element-name index view an Engine evaluates over: the
// per-name id lists and the all-elements list, each in document
// order. The in-memory maps NewEngine builds satisfy it, and so does
// any storage backend (internal/store) — the engine never cares where
// the lists live, only that they are document-ordered and stable for
// the duration of a query.
type Index interface {
	// IDs returns the ids of elements with the given name in document
	// order. The slice is borrowed: read-only, valid until the index
	// is next mutated.
	IDs(name string) []int
	// Elems returns all element ids in document order, under the same
	// borrowing rule.
	Elems() []int
	// Entries returns len(Elems()) without materializing the list.
	Entries() int
}

// sliceIndex is the engine's built-in Index over plain slices.
type sliceIndex struct {
	byName map[string][]int
	elems  []int
}

func (s sliceIndex) IDs(name string) []int { return s.byName[name] }
func (s sliceIndex) Elems() []int          { return s.elems }
func (s sliceIndex) Entries() int          { return len(s.elems) }

// NewEngine indexes doc (whose labeling must have been built from the
// same document, so node ids coincide with document order).
func NewEngine(doc *xmltree.Document, lab scheme.Labeling) (*Engine, error) {
	nodes := doc.Nodes()
	if len(nodes) != lab.Len() {
		return nil, fmt.Errorf("xpath: document has %d nodes, labeling %d", len(nodes), lab.Len())
	}
	idx := sliceIndex{byName: make(map[string][]int)}
	names := make([]string, len(nodes))
	for i, n := range nodes {
		if n.Kind != xmltree.Element {
			continue
		}
		names[i] = n.Name
		idx.byName[n.Name] = append(idx.byName[n.Name], i)
		idx.elems = append(idx.elems, i)
	}
	return NewEngineWithIndex(lab, names, idx), nil
}

// NewEngineOver builds an engine over any Index implementation and the
// document's own names column: dyndoc's entry point, so that one
// incrementally updated backend (slice or paged) serves every query.
func NewEngineOver(lab scheme.Labeling, names *cow.Column[string], idx Index) *Engine {
	return &Engine{lab: lab, names: names, idx: idx}
}

// NewEngineWithIndex is NewEngineOver for names in a plain slice.
func NewEngineWithIndex(lab scheme.Labeling, names []string, idx Index) *Engine {
	col := cow.NewColumn(names)
	return NewEngineOver(lab, &col, idx)
}

// Versioned sets the source of e's edit tokens and returns e.
func (e *Engine) Versioned(v Versions) *Engine {
	e.vers = v
	return e
}

// Stamp identifies the state e evaluates over as far as a query that
// tests only the given element names can tell, by the latest of their
// edit tokens: two engines that agree on it hold the same elements
// under those names, in the same order and the same places. For nil
// names — a query that tests * reads every element — and for an engine
// without Versions it is gen, the caller's name for the whole state.
func (e *Engine) Stamp(names []string, gen uint64) uint64 {
	if e.vers == nil || names == nil {
		return gen
	}
	stamp := uint64(0)
	for _, name := range names {
		stamp = max(stamp, e.vers.NameToken(name))
	}
	return stamp
}

// Eval runs an absolute query and returns matching node ids in
// document order. The returned slice is always the caller's to keep:
// when evaluation ends on a borrowed index list (see eval) a copy is
// made here, so callers may mutate the result freely.
func (e *Engine) Eval(q *Query) ([]int, error) {
	if q.Relative {
		return nil, fmt.Errorf("xpath: Eval needs an absolute query, got %q", q)
	}
	out, borrowed, err := e.eval(q, nil, true)
	if err != nil {
		return nil, err
	}
	if borrowed {
		out = append([]int(nil), out...)
	}
	return out, nil
}

// eval runs the steps from the given context; fromRoot selects the
// virtual document node as initial context.
//
// Copy-on-write guard: a first-step descendant axis borrows the
// per-name index slice directly instead of copying it — no predicate
// or later step ever mutates a step's input in place (joins and
// predicate filters always build fresh output slices), so sharing is
// safe inside evaluation. The returned borrowed flag reports that the
// final result still aliases the index; Eval copies exactly then, and
// internal consumers (exists) only read, so they skip the copy.
func (e *Engine) eval(q *Query, ctx []int, fromRoot bool) ([]int, bool, error) {
	borrowed := false
	for si, step := range q.Steps {
		var out []int
		first := fromRoot && si == 0
		borrowed = false
		switch step.Axis {
		case Child:
			if first {
				// Child of the document node: the root element.
				if root := e.rootElement(); root >= 0 && e.nameMatches(step.Name, root) {
					out = []int{root}
				}
			} else {
				out = e.joinDown(ctx, e.candidates(step.Name), false)
			}
		case Descendant:
			if first {
				// Borrowed, not copied: the candidate list is exactly
				// the step result. See the guard note above.
				out = e.candidates(step.Name)
				borrowed = true
			} else {
				out = e.joinDown(ctx, e.candidates(step.Name), true)
			}
		case PrecedingSibling, FollowingSibling:
			if first {
				return nil, false, fmt.Errorf("xpath: %s from document root", step.Axis)
			}
			out = e.siblings(ctx, step.Name, step.Axis == PrecedingSibling)
		case Following:
			if first {
				return nil, false, fmt.Errorf("xpath: %s from document root", step.Axis)
			}
			out = e.following(ctx, step.Name)
		case Parent:
			if first {
				return nil, false, fmt.Errorf("xpath: %s from document root", step.Axis)
			}
			out = e.parents(ctx, step.Name)
		case Ancestor:
			if first {
				return nil, false, fmt.Errorf("xpath: %s from document root", step.Axis)
			}
			out = e.ancestors(ctx, step.Name)
		}
		for _, pred := range step.Preds {
			var err error
			out, err = e.applyPred(out, step, pred)
			if err != nil {
				return nil, false, err
			}
			// Predicate filters build fresh slices, so the borrow (if
			// any) ends here.
			borrowed = false
		}
		ctx = out
	}
	return ctx, borrowed, nil
}

// rootElement returns the id of the document element.
func (e *Engine) rootElement() int {
	tr := e.lab.Tree()
	for i := 0; i < tr.Cap(); i++ {
		if tr.Parent(i) == -1 {
			return i
		}
	}
	return -1
}

// candidates returns the doc-ordered element ids matching a name test.
func (e *Engine) candidates(name string) []int {
	if name == "*" {
		return e.idx.Elems()
	}
	return e.idx.IDs(name)
}

func (e *Engine) nameMatches(test string, id int) bool {
	return test == "*" || e.names.At(id) == test
}

// joinDown is a stack-based structural join: it returns the candidates
// that are children (or, with anc, descendants) of some context node.
// Both inputs are in document order; every structural decision is a
// labeling predicate call.
func (e *Engine) joinDown(ctx, cand []int, anc bool) []int {
	var out []int
	var stack []int
	i := 0
	for _, d := range cand {
		// Push context nodes that start before d, maintaining the
		// nested-chain invariant.
		for i < len(ctx) && e.lab.Before(ctx[i], d) {
			for len(stack) > 0 && !e.lab.IsAncestor(stack[len(stack)-1], ctx[i]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, ctx[i])
			i++
		}
		// Pop context nodes whose subtree ended before d.
		for len(stack) > 0 && !e.lab.IsAncestor(stack[len(stack)-1], d) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			continue
		}
		if anc || e.lab.IsParent(stack[len(stack)-1], d) {
			out = append(out, d)
		}
	}
	return out
}

// siblings returns, deduplicated and in document order, the elements
// matching the name test that are preceding (or following) siblings of
// a context node.
func (e *Engine) siblings(ctx []int, name string, preceding bool) []int {
	tr := e.lab.Tree()
	var out []int
	// taken[i] marks the i-th child of the parent a run of consecutive
	// context nodes shares as already in out, so that k siblings in the
	// context do not put k copies of their common siblings there; what
	// repeats across runs is left to sortDocOrder.
	var taken []bool
	run := -1
	for _, v := range ctx {
		p := tr.Parent(v)
		if p == -1 {
			continue
		}
		kids := tr.Children[p]
		if p != run {
			run = p
			taken = append(taken[:0], make([]bool, len(kids))...)
		}
		for i, u := range kids {
			if u == v {
				continue
			}
			if e.names.At(u) == "" || !e.nameMatches(name, u) {
				continue
			}
			// The sibling and order checks are the labeling's work.
			if !e.lab.IsSibling(u, v) || taken[i] {
				continue
			}
			if before := e.lab.Before(u, v); before == preceding {
				taken[i] = true
				out = append(out, u)
			}
		}
	}
	return e.sortDocOrder(out)
}

// sortDocOrder sorts ids into document order and drops the duplicates,
// which the order leaves adjacent. Id order is not document order once
// the document has been edited, and the next step's joinDown assumes a
// document-ordered context.
func (e *Engine) sortDocOrder(ids []int) []int {
	slices.SortFunc(ids, func(a, b int) int {
		switch {
		case a == b:
			return 0
		case e.lab.Before(a, b):
			return -1
		}
		return 1
	})
	return slices.Compact(ids)
}

// parents returns, deduplicated and in document order, the parents of
// the context nodes that match the name test, confirmed through the
// labeling's parent predicate.
func (e *Engine) parents(ctx []int, name string) []int {
	tr := e.lab.Tree()
	var out []int
	for _, v := range ctx {
		p := tr.Parent(v)
		if p == -1 || e.names.At(p) == "" || !e.nameMatches(name, p) {
			continue
		}
		// Consecutive children of one parent add it once; sortDocOrder
		// drops what repeats further apart.
		if n := len(out); n > 0 && out[n-1] == p {
			continue
		}
		if e.lab.IsParent(p, v) {
			out = append(out, p)
		}
	}
	return e.sortDocOrder(out)
}

// ancestors returns the deduplicated proper ancestors of the context
// nodes that match the name test, decided by the labels.
func (e *Engine) ancestors(ctx []int, name string) []int {
	cand := e.candidates(name)
	var out []int
	for _, u := range cand {
		for _, v := range ctx {
			if e.lab.IsAncestor(u, v) {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// following returns the elements matching the name test that are after
// every context node's subtree (the XPath following axis), for at
// least one context node.
func (e *Engine) following(ctx []int, name string) []int {
	cand := e.candidates(name)
	var out []int
	for _, w := range cand {
		for _, v := range ctx {
			if e.lab.Before(v, w) && !e.lab.IsAncestor(v, w) {
				out = append(out, w)
				break
			}
		}
	}
	return out
}

// applyPred filters a step result by one predicate.
func (e *Engine) applyPred(in []int, step Step, pred Pred) ([]int, error) {
	if pred.Position > 0 {
		return e.filterPosition(in, step, pred.Position), nil
	}
	var out []int
	for _, v := range in {
		ok, err := e.exists(v, pred.Path)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// filterPosition keeps nodes that are the n-th same-name child of
// their parent, XPath's meaning for name[n] on the child and
// descendant axes.
func (e *Engine) filterPosition(in []int, step Step, n int) []int {
	tr := e.lab.Tree()
	var out []int
	for _, v := range in {
		p := tr.Parent(v)
		if p == -1 {
			if n == 1 {
				out = append(out, v)
			}
			continue
		}
		pos := 0
		for _, u := range tr.Children[p] {
			if e.names.At(u) != "" && e.nameMatches(step.Name, u) {
				pos++
			}
			if u == v {
				break
			}
		}
		if pos == n {
			out = append(out, v)
		}
	}
	return out
}

// exists evaluates a relative path predicate under node v. It only
// inspects the result length, so a borrowed final slice needs no copy.
func (e *Engine) exists(v int, q *Query) (bool, error) {
	res, _, err := e.eval(q, []int{v}, false)
	if err != nil {
		return false, err
	}
	return len(res) > 0, nil
}

// Count evaluates a query and returns the number of matches — the
// "nodes retrieved" column of Table 3. It reads only the result
// length, so a borrowed final slice is counted without the defensive
// copy Eval would make.
func (e *Engine) Count(q *Query) (int, error) {
	if q.Relative {
		return 0, fmt.Errorf("xpath: Count needs an absolute query, got %q", q)
	}
	res, _, err := e.eval(q, nil, true)
	return len(res), err
}

// ---------------------------------------------------------------------------
// Planner primitives.
//
// The exported methods below are the raw building blocks the
// xpath/plan package composes plans from: borrowed candidate lists,
// structural joins in both directions over arbitrary (contiguous)
// list slices, and predicate filtering. They are plain reads of the
// engine's immutable views, so — like Eval — they are safe to call
// from any number of goroutines concurrently.

// Candidates returns the document-ordered element ids matching a name
// test. The slice is BORROWED from the engine's index: callers must
// treat it as read-only and may sub-slice it (for partitioned joins)
// but never mutate or append to it in place.
func (e *Engine) Candidates(name string) []int { return e.candidates(name) }

// CandidateCount returns len(Candidates(name)) — the per-name
// selectivity statistic the planner orders evaluation around. For "*"
// it is the index's entry count, so planning never makes the index
// materialize its all-elements list.
func (e *Engine) CandidateCount(name string) int {
	if name == "*" {
		return e.idx.Entries()
	}
	return len(e.idx.IDs(name))
}

// Root returns the id of the document element, or -1 on an empty
// document.
func (e *Engine) Root() int { return e.rootElement() }

// NameOf returns the element name recorded for id ("" for text
// nodes).
func (e *Engine) NameOf(id int) string { return e.names.At(id) }

// ParentOf returns the parent id of a node (-1 for the root), read
// from the labeling's structural mirror. The planner's pathcheck
// strategy walks these pointers to verify an anchor candidate's
// ancestor chain without materializing intermediate join results.
func (e *Engine) ParentOf(id int) int { return e.lab.Tree().Parent(id) }

// NameMatches reports whether node id satisfies a name test.
func (e *Engine) NameMatches(test string, id int) bool { return e.nameMatches(test, id) }

// JoinDown is the exported structural join: it returns the candidates
// that are children (or, with desc, descendants) of some context
// node. Both inputs must be in document order; cand may be any
// contiguous slice of a document-ordered list, which is what makes
// the join partitionable — JoinDown(ctx, cand[a:b]) depends only on
// ctx and cand[a:b], so disjoint partitions evaluated concurrently
// concatenate into exactly JoinDown(ctx, cand).
func (e *Engine) JoinDown(ctx, cand []int, desc bool) []int {
	return e.joinDown(ctx, cand, desc)
}

// JoinUp is the reverse structural semi-join: it returns, in document
// order, the context nodes with at least one candidate child (or,
// with desc, descendant). It is the upward direction of the planner's
// anchored evaluation — pruning the lists of earlier steps by the
// survivors of a more selective later step.
func (e *Engine) JoinUp(ctx, cand []int, desc bool) []int {
	marked := make([]bool, len(ctx))
	e.JoinUpMarks(ctx, cand, desc, marked)
	var out []int
	for i, m := range marked {
		if m {
			out = append(out, ctx[i])
		}
	}
	return out
}

// JoinUpMarks is JoinUp writing into a caller-owned mark vector
// (marked[i] is set when ctx[i] has a qualifying candidate below it;
// existing marks are preserved). Partitioned parallel joins give each
// worker a disjoint candidate slice and a private mark vector, then
// OR the vectors — document order makes that union exact.
func (e *Engine) JoinUpMarks(ctx, cand []int, desc bool, marked []bool) {
	var stack []int // indices into ctx, innermost open context last
	i := 0
	for _, d := range cand {
		// Open every context node that starts before d, keeping the
		// stack a nested ancestor chain (same invariant as joinDown).
		for i < len(ctx) && e.lab.Before(ctx[i], d) {
			for len(stack) > 0 && !e.lab.IsAncestor(ctx[stack[len(stack)-1]], ctx[i]) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, i)
			i++
		}
		// Close context nodes whose subtree ended before d.
		for len(stack) > 0 && !e.lab.IsAncestor(ctx[stack[len(stack)-1]], d) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			continue
		}
		if desc {
			// Every open context node is an ancestor of d. An entry
			// already marked had everything beneath it marked when it
			// was, so the walk can stop there — total marking work is
			// amortized O(len(ctx)).
			for j := len(stack) - 1; j >= 0 && !marked[stack[j]]; j-- {
				marked[stack[j]] = true
			}
		} else if e.lab.IsParent(ctx[stack[len(stack)-1]], d) {
			// Only the innermost open context node can be the parent.
			marked[stack[len(stack)-1]] = true
		}
	}
}

// FilterPreds applies every predicate of step to the given node list.
// With no predicates the input slice is returned as-is (so a borrowed
// list stays borrowed); otherwise each predicate builds a fresh
// slice. Predicates are node-local (a positional
// predicate counts same-name siblings, a path predicate evaluates a
// relative query under the node), so filtering commutes with the
// structural joins — the algebraic fact the planner's reordering
// relies on.
func (e *Engine) FilterPreds(in []int, step Step) ([]int, error) {
	out := in
	for _, pred := range step.Preds {
		var err error
		out, err = e.applyPred(out, step, pred)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Corpus evaluates queries over a set of files, the way the paper runs
// Q1–Q6 over the scaled D5 collection.
type Corpus []*Engine

// Count sums the match counts over all files.
func (c Corpus) Count(q *Query) (int, error) {
	total := 0
	for _, e := range c {
		n, err := e.Count(q)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
