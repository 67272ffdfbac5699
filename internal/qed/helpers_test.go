package qed

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(s string) Code {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// TwoBetween returns m1 ≺ m2 strictly between l and r, for containment
// (start, end) pairs.
func TwoBetween(l, r Code) (m1, m2 Code, err error) {
	m1, err = Between(l, r)
	if err != nil {
		return Empty, Empty, err
	}
	m2, err = Between(m1, r)
	if err != nil {
		return Empty, Empty, err
	}
	return m1, m2, nil
}

// MustEncode is Encode for known-good n; it panics on error.
func MustEncode(n int) []Code {
	codes, err := Encode(n)
	if err != nil {
		panic(err)
	}
	return codes
}
