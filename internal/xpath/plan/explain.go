package plan

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/xpath"
)

// StepReport is one row of an EXPLAIN tree: the step text, the
// planner's cardinality estimate, the measured cardinality (-1 when
// the strategy never materializes that step — pathcheck's verified
// prefix), and the evaluation phase the step ran in.
type StepReport struct {
	Text   string
	Est    int
	Actual int
	Phase  string
}

// Report is the EXPLAIN output for one execution: the chosen
// strategy and anchor, the cost-model values behind the choice, the
// result-cache state, the element names the answer depends on, the
// widest partition fan-out any operator used, and the per-step
// estimate/actual rows.
type Report struct {
	Query         string
	Strategy      Strategy
	Anchor        int // 0-based step index; -1 when the strategy has none
	CostLeftRight float64
	CostChosen    float64
	Generation    uint64   // the snapshot reported on, if Snapshot: dyndoc.Concurrent sets both
	Snapshot      bool     // the document publishes snapshots
	Cache         string   // "hit" or "miss"
	Reads         []string // the plan's read set; nil stands for every element (*)
	Parallelism   int      // max partitions any operator split into
	Steps         []StepReport
	Matches       int
}

// newReport builds the report skeleton for a plan: step texts,
// fresh estimates against e, phases per strategy, actuals unset.
func newReport(p *Plan, e *xpath.Engine) *Report {
	rec := &Report{
		Query:         p.Text,
		Strategy:      p.Strategy,
		Anchor:        -1,
		CostLeftRight: p.CostLeftRight,
		CostChosen:    p.CostChosen,
		Reads:         p.Reads,
		Parallelism:   1,
		Steps:         make([]StepReport, len(p.Query.Steps)),
	}
	if p.Strategy == Anchored || p.Strategy == PathCheck {
		rec.Anchor = p.Anchor
	}
	est := estimates(e, p.Query)
	for i, s := range p.Query.Steps {
		rec.Steps[i] = StepReport{
			Text:   stepText(s),
			Est:    est[i],
			Actual: -1,
			Phase:  phaseOf(p, i),
		}
	}
	return rec
}

// stepText renders one step the way Query.String would.
func stepText(s xpath.Step) string {
	q := xpath.Query{Steps: []xpath.Step{s}}
	return q.String()
}

// phaseOf names the role step i plays under the plan's strategy.
func phaseOf(p *Plan, i int) string {
	switch p.Strategy {
	case FallbackAxes:
		return "fallback"
	case Anchored:
		switch {
		case i < p.Anchor:
			return "prune-up"
		case i == p.Anchor:
			return "anchor"
		}
		return "join"
	case PathCheck:
		switch {
		case i < p.Anchor:
			return "path-verified"
		case i == p.Anchor:
			return "anchor"
		}
		return "join"
	}
	if i == 0 {
		return "scan"
	}
	return "join"
}

// String renders the report as the fixed-format text cmd/dynxml
// query -explain prints (pinned by the golden test in the dynxml package).
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN %s\n", r.Query)
	if r.Anchor >= 0 {
		fmt.Fprintf(&sb, "strategy: %s anchor=%d\n", r.Strategy, r.Anchor+1)
	} else {
		fmt.Fprintf(&sb, "strategy: %s\n", r.Strategy)
	}
	if r.Strategy != FallbackAxes {
		fmt.Fprintf(&sb, "cost: chosen=%.0f leftright=%.0f\n", r.CostChosen, r.CostLeftRight)
	}
	if r.Snapshot {
		fmt.Fprintf(&sb, "cache: result=%s generation=%d\n", r.Cache, r.Generation)
	} else {
		fmt.Fprintf(&sb, "cache: result=%s\n", r.Cache)
	}
	fmt.Fprintf(&sb, "reads: %s\n", cmp.Or(strings.Join(r.Reads, ", "), "*"))
	fmt.Fprintf(&sb, "parallelism: %d\n", r.Parallelism)
	for i, s := range r.Steps {
		actual := "-"
		if s.Actual >= 0 {
			actual = fmt.Sprintf("%d", s.Actual)
		}
		fmt.Fprintf(&sb, "step %d: %s est=%d actual=%s phase=%s\n", i+1, s.Text, s.Est, actual, s.Phase)
	}
	fmt.Fprintf(&sb, "matches: %d\n", r.Matches)
	return sb.String()
}
