// Package prefix implements the prefix labeling scheme family: a
// node's label is its parent's label concatenated with its own self
// label (Section 2.2 of the CDBS paper). The self-label encoding is
// pluggable, yielding DeweyID(UTF8)-Prefix, Binary-String-Prefix,
// OrdPath1/2-Prefix, QED-Prefix and V-CDBS-Prefix.
package prefix

import (
	"errors"
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/deweyid"
	"repro/internal/ordpath"
	"repro/internal/qed"
)

// Component is one self label; its concrete type belongs to the codec.
type Component any

// ErrNoRoom reports that no self label fits between the neighbors
// without re-labeling (static codecs only).
var ErrNoRoom = errors.New("prefix: no room between sibling labels without re-labeling")

// ComponentCodec encodes self labels.
type ComponentCodec interface {
	// Name returns the scheme display name, e.g. "QED-Prefix".
	Name() string
	// Dynamic reports whether Between always succeeds.
	Dynamic() bool
	// Initial returns the self labels for n siblings at build time.
	Initial(n int) ([]Component, error)
	// Between returns a self label strictly between l and r; nil
	// bounds are open. Static codecs return ErrNoRoom except when
	// appending (r == nil).
	Between(l, r Component) (Component, error)
	// NBetween returns n ordered self labels strictly between l and r
	// (nil bounds open), assigned with even subdivision so a bulk
	// sibling run gets short labels. Static codecs return ErrNoRoom
	// when the gap cannot hold n labels.
	NBetween(l, r Component, n int) ([]Component, error)
	// Compare orders two self labels.
	Compare(a, b Component) int
	// Bits returns the storage of one component, including its
	// delimiter or length overhead.
	Bits(c Component) int
	// AppendComponent serialises c for storage, appending to dst.
	AppendComponent(dst []byte, c Component) ([]byte, error)
}

// AllCodecs returns the prefix-scheme codecs in the order the paper's
// figures list them.
func AllCodecs() []ComponentCodec {
	return []ComponentCodec{
		Dewey(), Cohen(), OrdPath(ordpath.Table1), OrdPath(ordpath.Table2), QEDCodec(), VCDBSCodec(),
	}
}

// ---------------------------------------------------------------------------
// DeweyID(UTF8)

type deweyCodec struct{}

// Dewey returns the DeweyID(UTF8) component codec: 1-based ordinals in
// self-delimiting UTF-8-style bytes. Static: insertions between
// siblings re-label the following siblings and their subtrees.
func Dewey() ComponentCodec { return deweyCodec{} }

func (deweyCodec) Name() string  { return "DeweyID(UTF8)-Prefix" }
func (deweyCodec) Dynamic() bool { return false }

func (deweyCodec) Initial(n int) ([]Component, error) {
	if n < 0 {
		return nil, fmt.Errorf("prefix: bad sibling count %d", n)
	}
	out := make([]Component, n)
	for i := range out {
		out[i] = i + 1
	}
	return out, nil
}

func (deweyCodec) Between(l, r Component) (Component, error) {
	if r == nil {
		if l == nil {
			return 1, nil
		}
		return l.(int) + 1, nil // appending needs no re-labeling
	}
	lv := 0
	if l != nil {
		lv = l.(int)
	}
	if rv := r.(int); rv-lv >= 2 {
		return lv + (rv-lv)/2, nil
	}
	return nil, ErrNoRoom
}

// NBetween spreads n ordinals evenly across the integer gap, or
// counts up from l when the right bound is open (appending).
func (deweyCodec) NBetween(l, r Component, n int) ([]Component, error) {
	if n < 0 {
		return nil, fmt.Errorf("prefix: NBetween count %d is negative", n)
	}
	lv := 0
	if l != nil {
		lv = l.(int)
	}
	out := make([]Component, n)
	if r == nil {
		for i := range out {
			out[i] = lv + i + 1
		}
		return out, nil
	}
	rv := r.(int)
	if rv-lv-1 < n {
		return nil, ErrNoRoom
	}
	span := rv - lv
	for i := range out {
		out[i] = lv + span*(i+1)/(n+1)
	}
	return out, nil
}

func (deweyCodec) Compare(a, b Component) int { return intCompare(a.(int), b.(int)) }

func (deweyCodec) Bits(c Component) int { return 8 * deweyid.UTF8ComponentBytes(c.(int)) }

func intCompare(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Binary-String (Cohen, Kaplan, Milo)

type cohenCodec struct{}

// Cohen returns the binary-string component codec of Cohen et al.:
// the i-th child costs i bits (i−1 ones and a zero), giving the "very
// large label sizes" of Section 2.2.
func Cohen() ComponentCodec { return cohenCodec{} }

func (cohenCodec) Name() string  { return "Binary-String-Prefix" }
func (cohenCodec) Dynamic() bool { return false }

func (cohenCodec) Initial(n int) ([]Component, error) { return deweyCodec{}.Initial(n) }

func (cohenCodec) Between(l, r Component) (Component, error) {
	return deweyCodec{}.Between(l, r)
}

func (cohenCodec) NBetween(l, r Component, n int) ([]Component, error) {
	return deweyCodec{}.NBetween(l, r, n)
}

func (cohenCodec) Compare(a, b Component) int { return intCompare(a.(int), b.(int)) }

func (cohenCodec) Bits(c Component) int { return deweyid.CohenSelfBits(c.(int)) }

// ---------------------------------------------------------------------------
// ORDPATH

type ordpathCodec struct {
	table *ordpath.Table
}

// OrdPath returns the ORDPATH component codec over the given bit-code
// table ("OrdPath1-Prefix" / "OrdPath2-Prefix"). Components are kept
// in their encoded bitstring form, as stored labels would be: ordering
// compares bits directly (ORDPATH's order-preserving codes), but an
// insertion must decode the neighbor components, caret in with integer
// arithmetic and re-encode — the decode cost Section 2.2 of the CDBS
// paper charges ORDPATH updates.
func OrdPath(table *ordpath.Table) ComponentCodec { return ordpathCodec{table: table} }

func (c ordpathCodec) Name() string  { return c.table.Name() + "-Prefix" }
func (c ordpathCodec) Dynamic() bool { return true }

// encodeSelf serialises one self label.
func (c ordpathCodec) encodeSelf(s ordpath.Self) (bitstr.BitString, error) {
	return c.table.EncodeLabel(ordpath.Label(s))
}

// decodeSelf parses one encoded self label.
func (c ordpathCodec) decodeSelf(comp Component) (ordpath.Self, error) {
	b, ok := comp.(bitstr.BitString)
	if !ok {
		return nil, fmt.Errorf("prefix: ordpath component has type %T", comp)
	}
	lab, err := c.table.DecodeLabel(b)
	if err != nil {
		return nil, err
	}
	return ordpath.Self(lab), nil
}

func (c ordpathCodec) Initial(n int) ([]Component, error) {
	if n < 0 {
		return nil, fmt.Errorf("prefix: bad sibling count %d", n)
	}
	selfs := ordpath.InitialChildren(n)
	out := make([]Component, n)
	for i, s := range selfs {
		enc, err := c.encodeSelf(s)
		if err != nil {
			return nil, err
		}
		out[i] = enc
	}
	return out, nil
}

func (c ordpathCodec) Between(l, r Component) (Component, error) {
	var ls, rs ordpath.Self
	var err error
	if l != nil {
		if ls, err = c.decodeSelf(l); err != nil {
			return nil, err
		}
	}
	if r != nil {
		if rs, err = c.decodeSelf(r); err != nil {
			return nil, err
		}
	}
	m, err := ordpath.BetweenSelf(ls, rs)
	if err != nil {
		return nil, err
	}
	return c.encodeSelf(m)
}

// NBetween subdivides with per-gap Between calls: ORDPATH's careting
// rules have no closed positional form, so the generic even
// subdivision is its bulk path.
func (c ordpathCodec) NBetween(l, r Component, n int) ([]Component, error) {
	return nBetweenByBisection(c, l, r, n)
}

// nBetweenByBisection is the generic even-subdivision bulk assignment
// for codecs without a one-pass closed form: each gap's middle label
// comes from one Between call, exactly the shape of Algorithm 2's
// procedure SubEncoding.
func nBetweenByBisection(c ComponentCodec, l, r Component, n int) ([]Component, error) {
	if n < 0 {
		return nil, fmt.Errorf("prefix: NBetween count %d is negative", n)
	}
	out := make([]Component, n+2)
	out[0], out[n+1] = l, r
	var sub func(lo, hi int) error
	sub = func(lo, hi int) error {
		if lo+1 >= hi {
			return nil
		}
		mid := (lo + hi + 1) / 2
		m, err := c.Between(out[lo], out[hi])
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

func (c ordpathCodec) Compare(a, b Component) int {
	ab, bb := a.(bitstr.BitString), b.(bitstr.BitString)
	// The component code is order-preserving for raw bit comparison,
	// except when one encoding is a bit-prefix of the other; then the
	// codes must be decoded to compare componentwise.
	if !ab.HasPrefix(bb) && !bb.HasPrefix(ab) {
		return ab.Compare(bb)
	}
	if ab.Equal(bb) {
		return 0
	}
	as, errA := c.decodeSelf(a)
	bs, errB := c.decodeSelf(b)
	if errA != nil || errB != nil {
		return ab.Compare(bb)
	}
	return as.Compare(bs)
}

func (c ordpathCodec) Bits(comp Component) int {
	return comp.(bitstr.BitString).Len()
}

// ---------------------------------------------------------------------------
// QED

type qedPrefixCodec struct{}

// QEDCodec returns the QED component codec: quaternary self labels
// with "0" separators ("QED-Prefix").
func QEDCodec() ComponentCodec { return qedPrefixCodec{} }

func (qedPrefixCodec) Name() string  { return "QED-Prefix" }
func (qedPrefixCodec) Dynamic() bool { return true }

func (qedPrefixCodec) Initial(n int) ([]Component, error) {
	codes, err := qed.Encode(n)
	if err != nil {
		return nil, err
	}
	out := make([]Component, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (qedPrefixCodec) Between(l, r Component) (Component, error) {
	lc, rc := qed.Empty, qed.Empty
	if l != nil {
		lc = l.(qed.Code)
	}
	if r != nil {
		rc = r.(qed.Code)
	}
	return qed.Between(lc, rc)
}

// NBetween lays the run into the gap with qed.EncodeBetween's
// one-pass even subdivision.
func (qedPrefixCodec) NBetween(l, r Component, n int) ([]Component, error) {
	lc, rc := qed.Empty, qed.Empty
	if l != nil {
		lc = l.(qed.Code)
	}
	if r != nil {
		rc = r.(qed.Code)
	}
	codes, err := qed.EncodeBetween(lc, rc, n)
	if err != nil {
		return nil, err
	}
	out := make([]Component, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (qedPrefixCodec) Compare(a, b Component) int {
	return a.(qed.Code).Compare(b.(qed.Code))
}

func (qedPrefixCodec) Bits(c Component) int { return c.(qed.Code).BitsWithSeparator() }

// ---------------------------------------------------------------------------
// V-CDBS

type cdbsPrefixCodec struct{}

// VCDBSCodec returns the CDBS component codec: V-CDBS self labels
// carried in UTF-8-style byte containers for delimiting, so that (as
// Section 7.2.1 notes) its label size matches DeweyID(UTF8)-Prefix
// while insertions never re-label.
func VCDBSCodec() ComponentCodec { return cdbsPrefixCodec{} }

func (cdbsPrefixCodec) Name() string  { return "V-CDBS-Prefix" }
func (cdbsPrefixCodec) Dynamic() bool { return true }

func (cdbsPrefixCodec) Initial(n int) ([]Component, error) {
	codes, err := cdbs.Encode(n)
	if err != nil {
		return nil, err
	}
	out := make([]Component, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (cdbsPrefixCodec) Between(l, r Component) (Component, error) {
	lb, rb := bitstr.Empty, bitstr.Empty
	if l != nil {
		lb = l.(bitstr.BitString)
	}
	if r != nil {
		rb = r.(bitstr.BitString)
	}
	return cdbs.Between(lb, rb)
}

// NBetween lays the run into the gap with cdbs.EncodeBetween's
// one-pass even subdivision.
func (cdbsPrefixCodec) NBetween(l, r Component, n int) ([]Component, error) {
	lb, rb := bitstr.Empty, bitstr.Empty
	if l != nil {
		lb = l.(bitstr.BitString)
	}
	if r != nil {
		rb = r.(bitstr.BitString)
	}
	codes, err := cdbs.EncodeBetween(lb, rb, n)
	if err != nil {
		return nil, err
	}
	out := make([]Component, n)
	for i, code := range codes {
		out[i] = code
	}
	return out, nil
}

func (cdbsPrefixCodec) Compare(a, b Component) int {
	return a.(bitstr.BitString).Compare(b.(bitstr.BitString))
}

func (cdbsPrefixCodec) Bits(c Component) int {
	return 8 * utf8ContainerBytes(c.(bitstr.BitString).Len())
}

// utf8ContainerBytes returns how many UTF-8-style container bytes a
// payload of n bits needs (7 payload bits in a 1-byte container, then
// 11, 16, 21, 26, 31 — the RFC 2279 ladder).
func utf8ContainerBytes(n int) int {
	switch {
	case n <= 7:
		return 1
	case n <= 11:
		return 2
	case n <= 16:
		return 3
	case n <= 21:
		return 4
	case n <= 26:
		return 5
	default:
		return 6
	}
}

// AppendComponent writes the ordinal in the UTF-8-style multi-byte
// container DeweyID uses.
func (deweyCodec) AppendComponent(dst []byte, c Component) ([]byte, error) {
	v, ok := c.(int)
	if !ok {
		return nil, fmt.Errorf("prefix: dewey component has type %T", c)
	}
	l, err := deweyid.New(v)
	if err != nil {
		return nil, err
	}
	return append(dst, l.EncodeUTF8()...), nil
}

// AppendComponent writes the Cohen self label: ordinal−1 one-bits and
// a zero, packed MSB-first. Repeat builds the run of ones whole bytes
// at a time (the old per-bit AppendBit loop was quadratic in the
// ordinal).
func (cohenCodec) AppendComponent(dst []byte, c Component) ([]byte, error) {
	v, ok := c.(int)
	if !ok {
		return nil, fmt.Errorf("prefix: cohen component has type %T", c)
	}
	return bitstr.Repeat(1, v-1).AppendBit(0).AppendTo(dst), nil
}

// AppendComponent writes the already-encoded ORDPATH component bits.
func (ordpathCodec) AppendComponent(dst []byte, c Component) ([]byte, error) {
	b, ok := c.(bitstr.BitString)
	if !ok {
		return nil, fmt.Errorf("prefix: ordpath component has type %T", c)
	}
	return b.AppendTo(dst), nil
}

// AppendComponent writes the QED code in its separator-terminated
// 2-bit packing.
func (qedPrefixCodec) AppendComponent(dst []byte, c Component) ([]byte, error) {
	code, ok := c.(qed.Code)
	if !ok {
		return nil, fmt.Errorf("prefix: qed component has type %T", c)
	}
	return append(dst, qed.Marshal([]qed.Code{code})...), nil
}

// AppendComponent writes the CDBS code bits with a length prefix.
func (cdbsPrefixCodec) AppendComponent(dst []byte, c Component) ([]byte, error) {
	b, ok := c.(bitstr.BitString)
	if !ok {
		return nil, fmt.Errorf("prefix: cdbs component has type %T", c)
	}
	return b.AppendTo(dst), nil
}
