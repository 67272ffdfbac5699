package cdbs

import (
	"repro/internal/bitstr"
	"repro/internal/invariants"
)

// assertBetween checks the Theorem 3.1 postconditions of every code
// Algorithm 1 assigns — boxed, or read back from where it was stored,
// singly or as part of a run, which is ordered if each of its codes is
// between its own bounds — when the `invariants` build tag is on: the
// new code ends with bit 1 and sits strictly between its bounds (an
// empty bound is open).
func assertBetween(l, r, m bitstr.BitString) {
	if !invariants.Enabled {
		return
	}
	if !m.EndsWithOne() {
		invariants.Violated("cdbs", "Between(%q, %q) = %q does not end with bit 1", l, r, m)
	}
	if !l.IsEmpty() && l.Compare(m) >= 0 {
		invariants.Violated("cdbs", "Between(%q, %q) = %q is not above its left bound", l, r, m)
	}
	if !r.IsEmpty() && m.Compare(r) >= 0 {
		invariants.Violated("cdbs", "Between(%q, %q) = %q is not below its right bound", l, r, m)
	}
}
