package bitstr

import "repro/internal/invariants"

// assertWellFormed checks the representation invariants of s when the
// `invariants` build tag is on: the storage holds exactly
// ceil(Len/8) bytes and every bit past position Len-1 is zero (the
// byte-tail-zero invariant that Compare and Equal rely on to work on
// whole bytes).
func (s BitString) assertWellFormed() {
	if !invariants.Enabled {
		return
	}
	if want := bytesFor(s.n); len(s.data) != want && !(s.n == 0 && s.data == nil) {
		invariants.Violated("bitstr", "%d bits stored in %d bytes, want %d", s.n, len(s.data), want)
	}
	if r := s.n % 8; r != 0 && len(s.data) > 0 {
		if spare := s.data[len(s.data)-1] & ^(byte(0xFF) << (8 - r)); spare != 0 {
			invariants.Violated("bitstr", "spare bits %08b after bit %d are not zero", spare, s.n)
		}
	}
}
