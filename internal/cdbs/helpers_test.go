package cdbs

import "repro/internal/bitstr"

// MustEncode is Encode for known-good n; it panics on error.
func MustEncode(n int) []bitstr.BitString {
	codes, err := Encode(n)
	if err != nil {
		panic(err)
	}
	return codes
}
