package qed

import "fmt"

// RefNBetween is the retained gap-by-gap bulk assignment: an even
// index subdivision driven by one validated Between call per emitted
// code. EncodeBetween replaced it on the production paths with a
// one-pass recursion that validates the bounds once; it stays as the
// differential ground truth for the unit tests and FuzzEncodeBetween,
// mirroring cdbs/reference_test.go.
func RefNBetween(l, r Code, n int) ([]Code, error) {
	if n < 0 {
		return nil, fmt.Errorf("qed: NBetween count %d is negative", n)
	}
	out := make([]Code, n+2)
	out[0], out[n+1] = l, r
	var sub func(lo, hi int) error
	sub = func(lo, hi int) error {
		if lo+1 >= hi {
			return nil
		}
		mid := (lo + hi + 1) / 2
		m, err := Between(out[lo], out[hi])
		if err != nil {
			return err
		}
		out[mid] = m
		if err := sub(lo, mid); err != nil {
			return err
		}
		return sub(mid, hi)
	}
	if err := sub(0, n+1); err != nil {
		return nil, err
	}
	return out[1 : n+1], nil
}
