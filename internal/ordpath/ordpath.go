// Package ordpath implements the ORDPATH labeling scheme (O'Neil et
// al., SIGMOD 2004), the main dynamic prefix-scheme baseline of the
// CDBS paper.
//
// An ORDPATH label is a sequence of signed integer components. The
// initial labeling uses only odd components (1, 3, 5, …), deliberately
// leaving the even values unused. An insertion between two siblings
// whose components differ by exactly 2 "carets in": it takes the even
// value between them and appends a further odd component, producing a
// label at the *same level* as its neighbors (the even component does
// not increase the level). That is Example 2.1 of the CDBS paper: the
// sibling inserted between "1" and "3" is "2.1".
//
// Labels are serialised with prefix-free, order-preserving bitstring
// component codes so that labels compare correctly as raw bit strings.
// The CDBS paper benchmarks two code tables, OrdPath1 and OrdPath2;
// Table1 and Table2 reproduce that setup.
package ordpath

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ErrNotOrdered reports BetweenSelf(l, r) with l not strictly before r.
var ErrNotOrdered = errors.New("ordpath: left self-label is not before right self-label")

// ErrMalformed reports a component sequence that does not end with an
// odd component or has an odd component in a non-final position of a
// caret group.
var ErrMalformed = errors.New("ordpath: malformed component sequence")

// Self is the self-label of one sibling: zero or more even "caret"
// components followed by exactly one odd component. A full ORDPATH
// label is the concatenation of the Self sequences along the path from
// the root.
type Self []int64

// Validate checks the even*-then-odd shape.
func (s Self) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("%w: empty self-label", ErrMalformed)
	}
	for i, c := range s[:len(s)-1] {
		if c%2 != 0 {
			return fmt.Errorf("%w: odd component %d at interior position %d", ErrMalformed, c, i)
		}
	}
	if last := s[len(s)-1]; last%2 == 0 {
		return fmt.Errorf("%w: final component %d is even", ErrMalformed, last)
	}
	return nil
}

// Compare orders self-labels componentwise; a proper prefix sorts
// first. (A valid Self is never a proper prefix of another valid Self,
// because interior components are even and final ones odd, but the
// rule matters for full labels.)
func (s Self) Compare(t Self) int { return slices.Compare(s, t) }

// String renders the components dot-separated, e.g. "2.1".
func (s Self) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = strconv.FormatInt(c, 10)
	}
	return strings.Join(parts, ".")
}

// clone copies a component slice.
func clone(s []int64) []int64 {
	out := make([]int64, len(s))
	copy(out, s)
	return out
}

// InitialChildren returns the self-labels 1, 3, 5, …, 2n−1 that
// ORDPATH assigns to n children at initial labeling time, skipping the
// even numbers.
func InitialChildren(n int) []Self {
	out := make([]Self, n)
	for i := range out {
		out[i] = Self{int64(2*i + 1)}
	}
	return out
}

// oddBetween returns an odd value strictly between a and b, balanced
// toward the middle. It panics if none exists (callers guarantee
// b−a > 2, or b−a == 2 with even a).
func oddBetween(a, b int64) int64 {
	m := a + (b-a)/2
	if m%2 == 0 {
		if m+1 < b {
			m++
		} else {
			m--
		}
	}
	// Go's % is negative for negative m; normalise: m odd means m%2 != 0.
	if m <= a || m >= b || m%2 == 0 {
		panic(fmt.Sprintf("ordpath: no odd between %d and %d", a, b))
	}
	return m
}

// BetweenSelf returns a self-label strictly between l and r in sibling
// order. A nil bound is open: BetweenSelf(nil, r) inserts before the
// first sibling, BetweenSelf(l, nil) after the last. No existing label
// changes — this is ORDPATH's insert-friendliness. The result may
// carry even caret components.
func BetweenSelf(l, r Self) (Self, error) {
	if l != nil {
		if err := l.Validate(); err != nil {
			return nil, err
		}
	}
	if r != nil {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	if l != nil && r != nil && l.Compare(r) >= 0 {
		return nil, fmt.Errorf("%w: %v vs %v", ErrNotOrdered, l, r)
	}
	m, err := betweenComps(l, r)
	if err != nil {
		return nil, err
	}
	return Self(m), nil
}

// betweenComps implements the caret-in insertion recursion on raw
// component sequences; either bound may be nil (open).
func betweenComps(l, r []int64) ([]int64, error) {
	switch {
	case l == nil && r == nil:
		return []int64{1}, nil
	case l == nil:
		// Before the first: step below r's first component.
		if r[0]%2 != 0 {
			return []int64{r[0] - 2}, nil
		}
		return []int64{r[0] - 1}, nil
	case r == nil:
		// After the last: step above l's first component.
		if l[0]%2 != 0 {
			return []int64{l[0] + 2}, nil
		}
		return []int64{l[0] + 1}, nil
	}
	// Walk the common prefix (shared caret components).
	i := 0
	for i < len(l) && i < len(r) && l[i] == r[i] {
		i++
	}
	if i == len(l) || i == len(r) {
		// A valid Self is never a proper prefix of another; reaching
		// here means the inputs were inconsistent.
		return nil, fmt.Errorf("%w: %v vs %v", ErrMalformed, Self(l), Self(r))
	}
	prefix := clone(l[:i])
	a, b := l[i], r[i]
	switch d := b - a; {
	case d > 2 || (d == 2 && a%2 == 0):
		return append(prefix, oddBetween(a, b)), nil
	case d == 2: // a odd: caret in with the even between and a fresh odd
		return append(prefix, a+1, 1), nil
	default: // d == 1: one side continues below an even component
		if a%2 == 0 {
			// l continues under the even a; insert after l's remainder.
			rest, err := betweenComps(l[i+1:], nil)
			if err != nil {
				return nil, err
			}
			return append(append(prefix, a), rest...), nil
		}
		// r continues under the even b; insert before r's remainder.
		rest, err := betweenComps(nil, r[i+1:])
		if err != nil {
			return nil, err
		}
		return append(append(prefix, b), rest...), nil
	}
}

// Label is a full ORDPATH label: the concatenation of Self sequences
// along the root-to-node path.
type Label []int64

// NewLabel builds a label from explicit components.
func NewLabel(comps ...int64) Label { return Label(clone(comps)) }

// Extend returns l ++ self, the label of a child with the given
// self-label.
func (l Label) Extend(self Self) Label {
	out := make(Label, 0, len(l)+len(self))
	out = append(out, l...)
	out = append(out, self...)
	return out
}

// Compare orders labels in document order: componentwise numerically,
// with an ancestor (proper prefix) before its descendants.
func (l Label) Compare(m Label) int { return slices.Compare(l, m) }

// Level returns the node depth encoded by the label: the number of odd
// components, since even caret components do not increase the level.
// This decode step is exactly why the CDBS paper calls ORDPATH slower
// at determining levels (Example 2.1).
func (l Label) Level() int {
	n := 0
	for _, c := range l {
		if c%2 != 0 {
			n++
		}
	}
	return n
}

// Parent returns the label with the final Self group removed, and
// false for the root (empty label).
func (l Label) Parent() (Label, bool) {
	if len(l) == 0 {
		return nil, false
	}
	i := len(l) - 1 // final component is odd
	for i > 0 && l[i-1]%2 == 0 {
		i--
	}
	return Label(clone(l[:i])), true
}

// IsAncestor reports whether l is a proper ancestor of m. Because
// every valid label ends with an odd component and caret groups are
// even-prefixed, component-prefix testing is exact.
func (l Label) IsAncestor(m Label) bool {
	if len(l) >= len(m) {
		return false
	}
	for i, c := range l {
		if m[i] != c {
			return false
		}
	}
	return true
}

// IsParent reports whether l is the parent of m.
func (l Label) IsParent(m Label) bool {
	p, ok := m.Parent()
	return ok && p.Compare(l) == 0
}

// IsSibling reports whether l and m are distinct nodes sharing a
// parent.
func (l Label) IsSibling(m Label) bool {
	if l.Compare(m) == 0 {
		return false
	}
	lp, ok1 := l.Parent()
	mp, ok2 := m.Parent()
	return ok1 && ok2 && lp.Compare(mp) == 0
}

// SelfPart returns the final Self group of the label.
func (l Label) SelfPart() Self {
	if len(l) == 0 {
		return nil
	}
	i := len(l) - 1
	for i > 0 && l[i-1]%2 == 0 {
		i--
	}
	return Self(clone(l[i:]))
}

// String renders the label dot-separated, e.g. "1.2.1".
func (l Label) String() string { return Self(l).String() }
