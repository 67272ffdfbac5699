// Package plan is the cost-based query planner over xpath.Engine.
//
// The naive engine evaluates steps strictly left-to-right, which is
// optimal when every step narrows the result but pathological when an
// early step has a huge candidate list (the `*` step of the paper's
// Q6 scans every element of the document). The planner estimates
// per-step selectivity from the per-name candidate counts the engine
// already indexes — plus a depth estimate derived from the label
// code-length histograms in internal/metrics — and picks the cheapest
// of three result-equivalent strategies:
//
//   - leftright: the engine's own document-ordered join sequence,
//     with large structural joins partitioned across a bounded worker
//     pool (document order makes the merge a pure concat).
//   - anchored: evaluate outward from the most selective name test:
//     an upward semi-join pass (Engine.JoinUp) prunes every earlier
//     step's candidate list down to nodes that lead to the anchor,
//     then a downward pass re-validates the pruned lists with
//     ordinary joins. Predicates run on the pruned lists — often
//     orders of magnitude smaller than what leftright filters.
//   - pathcheck: when every step before the anchor is predicate-free,
//     skip the intermediate joins entirely and verify each anchor
//     candidate by walking its ancestor chain (Engine.ParentOf)
//     against the step prefix. Cost is |anchor| × depth regardless of
//     how large the intermediate candidate lists are — the strategy
//     that beats leftright on Q6-shaped queries.
//
// Queries using axes outside the child/descendant spine fall back to
// the engine's reference evaluator unchanged. Every strategy is
// proven result-equivalent to the naive engine by the property tests
// in this package (the naive path is the retained Ref oracle, the
// same discipline bitstr and cdbs use for their kernels).
package plan

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/xpath"
)

// Strategy selects how a plan evaluates its query.
type Strategy int

const (
	// LeftRight is the engine's document-ordered join sequence (with
	// parallel partitioned joins) — the planner's baseline.
	LeftRight Strategy = iota
	// Anchored prunes with upward semi-joins to the anchor step, then
	// re-validates downward.
	Anchored
	// PathCheck verifies the predicate-free step prefix by ancestor
	// walks from the anchor's candidates.
	PathCheck
	// FallbackAxes delegates to the engine's reference evaluator
	// (query uses axes outside the child/descendant spine).
	FallbackAxes
)

// String names the strategy as EXPLAIN prints it.
func (s Strategy) String() string {
	switch s {
	case LeftRight:
		return "leftright"
	case Anchored:
		return "anchored"
	case PathCheck:
		return "pathcheck"
	case FallbackAxes:
		return "fallback-axes"
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
	// (Anchored and PathCheck only).
	Anchor int
	// CostLeftRight and CostChosen record the cost-model values the
	// choice was made on, in label-predicate-call units.
	CostLeftRight float64
	CostChosen    float64
	// Reads is every element name the query tests, predicate paths
	// included, sorted: the answer is a function of the elements so
	// named alone, since an edit never moves a node that stays. It is
	// nil when one of the tests is *, which reads every element.
	Reads []string
}

// ReadSet is Plan.Reads for q: the element names q tests, sorted, or
// nil when one of them is *.
func ReadSet(q *xpath.Query) []string {
	reads := appendNames(nil, q)
	slices.Sort(reads)
	if reads = slices.Compact(reads); slices.Contains(reads, "*") {
		return nil
	}
	return reads
}

// appendNames appends the name tests of q and of its predicates' paths.
func appendNames(dst []string, q *xpath.Query) []string {
	for _, s := range q.Steps {
		dst = append(dst, s.Name)
		for _, pred := range s.Preds {
			if pred.Path != nil {
				dst = appendNames(dst, pred.Path)
			}
		}
	}
	return dst
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
)

// meanDepth estimates the document's mean element depth from the
// process-wide label code-length histograms (cdbs bits at roughly two
// bits per level, qed digits at roughly one per level). The histogram
// is a process aggregate, not a per-document statistic, so the value
// only tunes cost constants — never correctness. With no observations
// it falls back to a typical XML depth.
func meanDepth() float64 {
	if m := mCDBSCodeLen.Mean(); m > 0 {
		return clampDepth(m / 2)
	}
	if m := mQEDCodeLen.Mean(); m > 0 {
		return clampDepth(m)
	}
	return 8
}

var (
	mCDBSCodeLen = metrics.Default.Histogram("cdbs_code_len_bits", metrics.ExpBuckets(1, 2, 12))
	mQEDCodeLen  = metrics.Default.Histogram("qed_code_len_digits", metrics.ExpBuckets(1, 2, 12))
)

func clampDepth(d float64) float64 {
	if d < 4 {
		return 4
	}
	if d > 32 {
		return 32
	}
	return d
}

// spine reports whether every step uses the child or descendant axis
// — the fragment the planner can reorder.
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
// ancestor walk of depth d̄ against an anchor-step prefix.
func costPathCheck(q *xpath.Query, counts []int, anchor int, depth float64) float64 {
	walk := float64(counts[anchor]) * (depth + float64(anchor)) * walkWeight
	return walk + predCost(q.Steps[anchor], counts[anchor]) + costForward(q, counts, anchor)
}

// costAnchored models the upward semi-join pass plus the downward
// re-validation, mirroring runAnchored's scans: the semi-join at step
// i reads both its own candidate list and the already-pruned list
// from step i+1 (at i = anchor-1 that is the full anchor list), while
// predicates and the downward validation joins run on lists pruned to
// at most the next pruned list's size.
func costAnchored(q *xpath.Query, counts []int, anchor int) float64 {
	cost := 0.0
	prunedNext := counts[anchor]
	for i := anchor - 1; i >= 0; i-- {
		pruned := min(counts[i], prunedNext)
		// Upward semi-join scans both inputs; predicate filtering and
		// one downward validation join touch only the pruned list.
		cost += float64(counts[i]) + float64(prunedNext) + predCost(q.Steps[i], pruned) + 2*float64(pruned)
		prunedNext = pruned
	}
	cost += predCost(q.Steps[anchor], counts[anchor]) + costForward(q, counts, anchor)
	return cost
}

// For compiles a plan for q against e's statistics. Compilation never
// fails: queries outside the child/descendant spine compile to the
// fallback strategy.
func For(e *xpath.Engine, q *xpath.Query) *Plan {
	p := &Plan{Query: q, Text: q.String(), Strategy: LeftRight, Reads: ReadSet(q)}
	if !spine(q) {
		p.Strategy = FallbackAxes
		return p
	}
	counts := stepCounts(e, q)
	depth := meanDepth()
	p.CostLeftRight = costLeftRight(q, counts)
	p.CostChosen = p.CostLeftRight

	// predFree[i]: steps 0..i-1 carry no predicates (pathcheck
	// eligibility for an anchor at step i).
	prefixPredFree := true
	for a := 1; a < len(q.Steps); a++ {
		if len(q.Steps[a-1].Preds) > 0 {
			prefixPredFree = false
		}
		if c := costAnchored(q, counts, a); c < p.CostChosen*chooseMargin {
			p.Strategy, p.Anchor, p.CostChosen = Anchored, a, c
		}
		if prefixPredFree {
			if c := costPathCheck(q, counts, a, depth); c < p.CostChosen*chooseMargin {
				p.Strategy, p.Anchor, p.CostChosen = PathCheck, a, c
			}
		}
	}
	return p
}
