package cdbs

import (
	"fmt"

	"repro/internal/bitstr"
)

// RefNBetween is the retained gap-by-gap bulk assignment: procedure
// SubEncoding of Algorithm 2 driven by one validated Between call per
// emitted code. EncodeBetween replaced it on the production paths
// with a one-pass recursion that validates the bounds once; this
// implementation stays as the differential ground truth for the unit
// tests and FuzzEncodeBetween, mirroring bitstr/reference_test.go.
func RefNBetween(l, r bitstr.BitString, n int) ([]bitstr.BitString, error) {
	if n < 0 {
		return nil, fmt.Errorf("cdbs: NBetween count %d is negative", n)
	}
	out := make([]bitstr.BitString, n+2)
	out[0], out[n+1] = l, r
	if err := refSubdivide(out, 0, n+1); err != nil {
		return nil, err
	}
	return out[1 : n+1], nil
}

// refSubdivide fills out[(lo,hi)] exclusive with evenly assigned
// codes, mirroring procedure SubEncoding of Algorithm 2.
func refSubdivide(out []bitstr.BitString, lo, hi int) error {
	if lo+1 >= hi {
		return nil
	}
	mid := (lo + hi + 1) / 2 // round((lo+hi)/2), half rounds up
	m, err := Between(out[lo], out[hi])
	if err != nil {
		return err
	}
	out[mid] = m
	if err := refSubdivide(out, lo, mid); err != nil {
		return err
	}
	return refSubdivide(out, mid, hi)
}
