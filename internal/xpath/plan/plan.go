// Package plan is the cost-based query planner over xpath.Engine.
//
// The engine evaluates steps strictly left-to-right in one loop
// (Engine.Run), which is optimal when every step narrows the result
// but pathological when an early step has a huge candidate list (the
// `*` step of the paper's Q6 scans every element of the document). The
// planner estimates per-step selectivity from the per-name candidate
// counts the engine already indexes, plus a constant typical element
// depth, and picks the cheaper of two result-equivalent strategies,
// both of which join through that loop:
//
//   - leftright: the loop from the first step, on any axis.
//   - pathcheck: when every step uses the child or descendant axis
//     and every step before the anchor is predicate-free, skip the
//     intermediate joins entirely and verify each anchor candidate
//     by walking its ancestor chain (Engine.ParentOf) against the step
//     prefix, then run the loop from the step after the anchor on the
//     survivors. Cost is |anchor| × depth regardless of how large the
//     intermediate candidate lists are — the strategy that beats
//     leftright on Q6-shaped queries.
//
// Both strategies are proven result-equivalent to the engine's Eval by
// the property tests in this package (Eval is the retained Ref oracle,
// the same discipline bitstr and cdbs use for their kernels). The
// package starts no goroutine: every plan runs on its caller's.
package plan

import (
	"slices"

	"repro/internal/xpath"
)

// Strategy selects how a plan evaluates its query.
type Strategy int

const (
	// LeftRight is the engine's document-ordered join sequence — the
	// planner's baseline.
	LeftRight Strategy = iota
	// PathCheck verifies the predicate-free step prefix by ancestor
	// walks from the anchor's candidates.
	PathCheck
)

// String names the strategy as EXPLAIN prints it.
func (s Strategy) String() string {
	switch s {
	case LeftRight:
		return "leftright"
	case PathCheck:
		return "pathcheck"
	}
	return "unknown"
}

// Plan is a compiled evaluation strategy for one query. A Plan holds
// no engine state: the same plan executes against any engine (any
// snapshot) of the same document lineage, which is what lets the plan
// cache key on query text alone. Strategy choice is driven by the
// statistics of the engine the plan was compiled against; statistics
// drift across snapshots can make a cached plan suboptimal but never
// incorrect.
type Plan struct {
	// Query is the parsed query the plan evaluates.
	Query *xpath.Query
	// Text is Query.String(), the cache key.
	Text string
	// Strategy is the chosen evaluation strategy.
	Strategy Strategy
	// Anchor is the 0-based step index evaluation is anchored on
	// (PathCheck only).
	Anchor int
	// CostLeftRight and CostChosen record the cost-model values the
	// choice was made on, in label-predicate-call units.
	CostLeftRight float64
	CostChosen    float64
	// Reads is what the answer depends on (ReadSet), sorted: every
	// element name the query tests, predicate paths included, and for a
	// * step the child list it walks, "/X" for the children of every X.
	// An edit never moves a node that stays, so nothing else can change
	// the answer. It is nil when a * step's parent is unknown, and the
	// query reads every element.
	Reads []string
}

// ReadSet is Plan.Reads for q. A named step reads its name. A * step
// reads "/X", the child lists of the elements called X, where X is the
// parent of the nodes it selects: on the child axis the step before it,
// on a sibling axis its context's parent, known when that context came
// down the child axis from X (or is a sibling of such a node). A
// predicate path starts from its own step. parent::* and ancestor::*
// read nothing, since the parents and ancestors of a surviving node
// never change, unless a position asks where they stand among their
// siblings. A * step whose parent is * or unknown — //*, following::*,
// /* — reads every element, and ReadSet returns nil.
func ReadSet(q *xpath.Query) []string {
	reads, ok := appendReads(nil, q, "", "")
	if !ok {
		return nil
	}
	slices.Sort(reads)
	return slices.Compact(reads)
}

// appendReads appends to dst what q reads when its context nodes are
// called ctx and their parents up ("" where unknown), and reports
// false if q reads every element.
func appendReads(dst []string, q *xpath.Query, ctx, up string) ([]string, bool) {
	for _, s := range q.Steps {
		parent := "" // of the nodes s selects
		switch s.Axis {
		case xpath.Child:
			parent = ctx
		case xpath.PrecedingSibling, xpath.FollowingSibling:
			parent = up
		}
		switch {
		case s.Name != "*":
			dst = append(dst, s.Name)
		case (s.Axis == xpath.Parent || s.Axis == xpath.Ancestor) && !positional(s):
			// Nothing: the context's own reads fix who its parents are.
		case parent == "" || parent == "*":
			return dst, false
		default:
			dst = append(dst, "/"+parent)
		}
		for _, pred := range s.Preds {
			if pred.Path != nil {
				var ok bool
				if dst, ok = appendReads(dst, pred.Path, s.Name, parent); !ok {
					return dst, false
				}
			}
		}
		ctx, up = s.Name, parent
	}
	return dst, true
}

// positional reports whether s has a positional predicate, which counts
// the nodes s selects among their parents' children.
func positional(s xpath.Step) bool {
	return slices.ContainsFunc(s.Preds, func(p xpath.Pred) bool { return p.Path == nil })
}

// Planner cost-model constants, in units of one label predicate call.
const (
	// walkWeight discounts one ancestor-walk level against a label
	// predicate call: a parent hop is an array index plus a short
	// string equality, measured at under a tenth of a bit-string
	// label comparison on the D5 corpus.
	walkWeight = 0.08
	// predWeight is the assumed cost of evaluating one predicate on
	// one node (a sub-query or a sibling scan).
	predWeight = 8.0
	// chooseMargin is the hysteresis: an alternative strategy must
	// beat leftright by this factor to displace it, so estimation
	// noise does not flip plans.
	chooseMargin = 0.9
	// depth is the typical element depth an ancestor walk climbs. It
	// only tunes the pathcheck cost, never correctness, and being a
	// constant it makes a plan, and EXPLAIN, a function of the
	// document alone.
	depth = 8.0
)

// spine reports whether every step uses the child or descendant axis
// — pathcheck's precondition: its ancestor walk decides only those.
func spine(q *xpath.Query) bool {
	for _, s := range q.Steps {
		if s.Axis != xpath.Child && s.Axis != xpath.Descendant {
			return false
		}
	}
	return true
}

// stepCounts returns the per-step candidate-list sizes — the
// selectivity statistics every cost formula below consumes. The first
// step on the child axis is the document root: at most one node.
func stepCounts(e *xpath.Engine, q *xpath.Query) []int {
	counts := make([]int, len(q.Steps))
	for i, s := range q.Steps {
		if i == 0 && s.Axis == xpath.Child {
			counts[i] = 1
			continue
		}
		counts[i] = e.CandidateCount(s.Name)
	}
	return counts
}

// estimates returns the planner's per-step cardinality estimate: the
// candidate count capped by zero-propagation (an empty step empties
// everything after it). EXPLAIN prints these next to the measured
// actuals, so the model's looseness is visible.
func estimates(e *xpath.Engine, q *xpath.Query) []int {
	est := stepCounts(e, q)
	dead := false
	for i := range est {
		if dead {
			est[i] = 0
		}
		if est[i] == 0 {
			dead = true
		}
	}
	return est
}

// predCost models filtering est nodes through the step's predicates.
func predCost(step xpath.Step, est int) float64 {
	return float64(len(step.Preds)) * float64(est) * predWeight
}

// costLeftRight models the engine's join sequence: each step scans
// the previous result plus its own candidate list, then filters.
func costLeftRight(q *xpath.Query, counts []int) float64 {
	cost := 0.0
	prev := 1
	for i, s := range q.Steps {
		cost += float64(prev) + float64(counts[i]) + predCost(s, counts[i])
		prev = counts[i]
	}
	return cost
}

// costForward models the steps after an anchor (identical to the
// leftright tail starting from the anchor's estimated survivors).
func costForward(q *xpath.Query, counts []int, anchor int) float64 {
	cost := 0.0
	prev := counts[anchor]
	for i := anchor + 1; i < len(q.Steps); i++ {
		cost += float64(prev) + float64(counts[i]) + predCost(q.Steps[i], counts[i])
		prev = counts[i]
	}
	return cost
}

// costPathCheck models verifying counts[anchor] candidates by an
// ancestor walk of the typical depth against an anchor-step prefix.
func costPathCheck(q *xpath.Query, counts []int, anchor int) float64 {
	walk := float64(counts[anchor]) * (depth + float64(anchor)) * walkWeight
	return walk + predCost(q.Steps[anchor], counts[anchor]) + costForward(q, counts, anchor)
}

// For compiles a plan for q against e's statistics. Compilation never
// fails: every query can run leftright.
func For(e *xpath.Engine, q *xpath.Query) *Plan {
	p := &Plan{Query: q, Text: q.String(), Strategy: LeftRight, Reads: ReadSet(q)}
	counts := stepCounts(e, q)
	p.CostLeftRight = costLeftRight(q, counts)
	p.CostChosen = p.CostLeftRight

	// Pathcheck may anchor at step a of a spine query while steps
	// 0..a-1 carry no predicates.
	for a := 1; spine(q) && a < len(q.Steps) && len(q.Steps[a-1].Preds) == 0; a++ {
		if c := costPathCheck(q, counts, a); c < p.CostChosen*chooseMargin {
			p.Strategy, p.Anchor, p.CostChosen = PathCheck, a, c
		}
	}
	return p
}
