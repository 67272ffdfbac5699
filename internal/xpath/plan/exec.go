package plan

import (
	"fmt"

	"repro/internal/xpath"
)

// Eval executes the plan against an engine and returns the matches in
// document order — always the same set the naive engine's Eval would
// return for the plan's query. The result is a fresh slice the caller
// owns.
func (p *Plan) Eval(e *xpath.Engine) ([]int, error) { return p.run(e, nil) }

// run executes the plan, optionally filling an EXPLAIN report's
// measured cardinalities. rec is nil on the hot path.
func (p *Plan) run(e *xpath.Engine, rec *Report) ([]int, error) {
	if p.Query.Relative {
		return nil, fmt.Errorf("xpath: Eval needs an absolute query, got %q", p.Query)
	}
	var onStep func(step, n int)
	if rec != nil {
		onStep = func(step, n int) { rec.Steps[step].Actual = n }
	}
	// Leftright runs every step from the document node. Pathcheck
	// verifies each anchor candidate's ancestor chain against the
	// predicate-free step prefix directly — no intermediate candidate
	// list is ever materialized, so a huge early step (the `*` in Q6)
	// costs nothing — and runs the steps after the anchor from its
	// survivors, as leftright would.
	from, ctx := 0, []int(nil)
	if p.Strategy == PathCheck {
		steps, a := p.Query.Steps, p.Anchor
		var err error
		ctx, err = e.FilterPreds(pathFilter(e, steps, a, e.Candidates(steps[a].Name)), steps[a])
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.Steps[a].Actual = len(ctx)
		}
		from = a + 1
	}
	out, borrowed, err := e.Run(p.Query, from, ctx, onStep)
	if err != nil {
		return nil, err
	}
	if borrowed {
		out = append([]int(nil), out...)
	}
	if rec != nil {
		rec.Matches = len(out)
	}
	return out, nil
}

// pathScratch is the ancestor-walk verifier's state, reused across
// the candidates of one scan: the candidate's ancestor chain and the
// two rows of the reachability DP.
type pathScratch struct {
	path []int  // ancestors of the candidate, parent first
	cur  []bool // positions (depth from root) the step prefix can reach
	nxt  []bool
}

// pathFilter keeps, in document order, the candidates whose ancestor
// chain admits the step prefix. Survivors cannot outnumber the
// candidates, so one full-size allocation replaces the append growth
// cycle.
func pathFilter(e *xpath.Engine, steps []xpath.Step, anchor int, cand []int) []int {
	if len(cand) == 0 {
		return nil
	}
	out := make([]int, 0, len(cand))
	var s pathScratch
	for _, d := range cand {
		if admitPath(e, steps, anchor, d, &s) {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// admitPath reports whether candidate d has proper ancestors
// u_0, …, u_{anchor-1} matching steps[0..anchor-1] such that each
// u_{j+1} is a child (resp. descendant) of u_j per steps[j+1].Axis,
// u_0 is the document root when steps[0] is child-axis, and d itself
// relates to u_{anchor-1} per steps[anchor].Axis. In a spine query
// every chain node is a proper ancestor of d, so a boolean DP over
// d's ancestor chain (root at position 0) decides this in
// O(anchor × depth):
//
//	reach_j = { positions the chain can occupy after matching step j }
//	child transition:      i ∈ reach_{j+1} iff i-1 ∈ reach_j
//	descendant transition: i ∈ reach_{j+1} iff i > min(reach_j)
//
// intersected with the name test at each position; the candidate is
// admitted when reach_{anchor-1} contains the parent position (child
// anchor axis) or is non-empty (descendant).
func admitPath(e *xpath.Engine, steps []xpath.Step, anchor int, d int, s *pathScratch) bool {
	s.path = s.path[:0]
	for v := e.ParentOf(d); v >= 0; v = e.ParentOf(v) {
		s.path = append(s.path, v)
	}
	m := len(s.path)
	if m == 0 {
		return false // the root has no proper ancestor to match steps[0]
	}
	pos := func(i int) int { return s.path[m-1-i] } // ancestor at depth i
	cur, nxt := resetBools(s.cur, m), resetBools(s.nxt, m)
	s.cur, s.nxt = cur, nxt
	any := false
	if steps[0].Axis == xpath.Child {
		cur[0] = e.NameMatches(steps[0].Name, pos(0))
		any = cur[0]
	} else {
		for i := 0; i < m; i++ {
			cur[i] = e.NameMatches(steps[0].Name, pos(i))
			any = any || cur[i]
		}
	}
	for j := 1; j < anchor && any; j++ {
		for i := range nxt {
			nxt[i] = false
		}
		any = false
		if steps[j].Axis == xpath.Child {
			for i := 1; i < m; i++ {
				if cur[i-1] && e.NameMatches(steps[j].Name, pos(i)) {
					nxt[i] = true
					any = true
				}
			}
		} else {
			lo := -1
			for i := 0; i < m; i++ {
				if cur[i] {
					lo = i
					break
				}
			}
			for i := lo + 1; lo >= 0 && i < m; i++ {
				if e.NameMatches(steps[j].Name, pos(i)) {
					nxt[i] = true
					any = true
				}
			}
		}
		cur, nxt = nxt, cur
	}
	if !any {
		return false
	}
	if steps[anchor].Axis == xpath.Child {
		return cur[m-1] // the chain must end at d's parent
	}
	return true
}

// resetBools returns b resized to n with every entry false.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}
