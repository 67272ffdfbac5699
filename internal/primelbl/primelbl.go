// Package primelbl implements the prime-number labeling baseline (Wu,
// Lee and Hsu, ICDE 2004) that the CDBS paper benchmarks as "Prime".
//
// Each non-root node receives a distinct prime as its self label; a
// node's label is the product of the self labels on its root path
// (the root is labeled 1). Ancestorship is divisibility:
// u ancestor-of v iff label(v) mod label(u) == 0. Document order is
// kept *outside* the labels in Simultaneous Congruence (SC) values
// built with the Chinese Remainder Theorem: one SC value per group of
// five nodes, with SC ≡ ordering(node) (mod self(node)). An insertion
// shifts the ordering numbers of every following node, so the SC
// values of all their groups must be recomputed — that recomputation,
// not re-labeling, is Prime's update cost (Table 4 and Figure 7 of the
// CDBS paper).
//
// Fidelity note: recovering an ordering number from SC mod p is exact
// only while the ordering number is below the node's prime, a
// restriction inherited from the original scheme. To keep query
// results correct on large documents while still paying the big-int
// arithmetic cost the paper measures, OrderKey performs the SC modular
// reduction (the honest cost) and falls back to the stored ordering
// number for the comparison value itself.
package primelbl

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cow"
)

// GroupSize is the number of nodes sharing one SC value; the paper
// states "Prime uses each SC value for every five nodes".
const GroupSize = 5

// ErrBadTree reports a malformed parent vector.
var ErrBadTree = errors.New("primelbl: malformed parent vector")

// Scheme holds the prime labels and SC values for one document whose
// nodes are identified by document-order index 0..n-1. The self
// labels and product labels are written once per node, so a Scheme and
// its clones share those columns (cow.Column); the ordering numbers and
// SC values shift on every insertion and are per clone.
type Scheme struct {
	selfPrimes cow.Column[int64]    // self label per node, ascending
	labels     cow.Column[*big.Int] // product label per node
	ordering   []int64              // current ordering number per node (1-based)
	sc         []*big.Int           // one SC value per group of GroupSize nodes
}

// Build labels a tree given as a parent vector in document order:
// parents[i] is the index of node i's parent and must be < i;
// parents[0] must be -1 (the root).
func Build(parents []int) (*Scheme, error) {
	n := len(parents)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadTree)
	}
	if parents[0] != -1 {
		return nil, fmt.Errorf("%w: parents[0] = %d, want -1", ErrBadTree, parents[0])
	}
	selfPrimes, labels := append(make([]int64, 0, n), 1), make([]*big.Int, n)
	selfPrimes = append(selfPrimes, firstPrimes(n-1)...)
	labels[0] = big.NewInt(1)
	for i := 1; i < n; i++ {
		p := parents[i]
		if p < 0 || p >= i {
			return nil, fmt.Errorf("%w: parents[%d] = %d", ErrBadTree, i, p)
		}
		labels[i] = new(big.Int).Mul(labels[p], big.NewInt(selfPrimes[i]))
	}
	s := &Scheme{selfPrimes: cow.NewColumn(selfPrimes), labels: cow.NewColumn(labels), ordering: make([]int64, n)}
	for i := 0; i < n; i++ {
		s.ordering[i] = int64(i + 1)
	}
	s.sc = make([]*big.Int, (n+GroupSize-1)/GroupSize)
	for g := range s.sc {
		s.recomputeSC(g)
	}
	return s, nil
}

// Len returns the number of nodes.
func (s *Scheme) Len() int { return s.labels.Len() }

// SelfPrime returns node i's self label.
func (s *Scheme) SelfPrime(i int) int64 { return s.selfPrimes.At(i) }

// Label returns node i's product label. The caller must not mutate it.
func (s *Scheme) Label(i int) *big.Int { return s.labels.At(i) }

// LabelBits returns the bit length of node i's label, the quantity
// Figure 5 charges Prime for.
func (s *Scheme) LabelBits(i int) int {
	if i == 0 {
		return 1
	}
	return s.labels.At(i).BitLen()
}

// SCBits returns the total bit length of all SC values; amortised over
// nodes this is Prime's ordering storage.
func (s *Scheme) SCBits() int {
	total := 0
	for _, v := range s.sc {
		if v != nil {
			total += v.BitLen()
		}
	}
	return total
}

// IsAncestor reports whether u is a proper ancestor of v using only
// the labels: label(v) mod label(u) == 0. This is the modular
// arithmetic whose cost dominates Prime's query times in Figure 6.
func (s *Scheme) IsAncestor(u, v int) bool {
	if u == v {
		return false
	}
	lu, lv := s.labels.At(u), s.labels.At(v)
	if lu.Cmp(lv) >= 0 {
		return false
	}
	var m big.Int
	return m.Mod(lv, lu).Sign() == 0
}

// IsParent reports whether u is the parent of v:
// label(v) / self(v) == label(u).
func (s *Scheme) IsParent(u, v int) bool {
	if v == 0 {
		return false
	}
	var q big.Int
	q.Quo(s.labels.At(v), big.NewInt(s.selfPrimes.At(v)))
	return q.Cmp(s.labels.At(u)) == 0
}

// OrderKey returns node i's ordering number the way Prime derives it:
// SC(group(i)) mod self(i). The big-int reduction is always performed
// (it is the measured cost); see the package comment on the returned
// value.
func (s *Scheme) OrderKey(i int) int64 {
	g := i / GroupSize
	var m big.Int
	derived := m.Mod(s.sc[g], big.NewInt(s.selfPrimes.At(i))).Int64()
	if derived == s.ordering[i]%s.selfPrimes.At(i) && s.ordering[i] < s.selfPrimes.At(i) {
		return derived
	}
	return s.ordering[i]
}

// Before reports document order between two nodes via their SC-derived
// ordering numbers.
func (s *Scheme) Before(u, v int) bool { return s.OrderKey(u) < s.OrderKey(v) }

// recomputeSC rebuilds the SC value of group g with the CRT:
// x ≡ ordering(i) (mod self(i)) for every node i in the group. The
// root (self label 1) contributes the trivial congruence.
func (s *Scheme) recomputeSC(g int) {
	lo := g * GroupSize
	hi := lo + GroupSize
	hi = min(hi, s.Len())
	// M = product of the moduli.
	M := big.NewInt(1)
	for i := lo; i < hi; i++ {
		if s.selfPrimes.At(i) > 1 {
			M.Mul(M, big.NewInt(s.selfPrimes.At(i)))
		}
	}
	x := new(big.Int)
	var mi, inv, term big.Int
	for i := lo; i < hi; i++ {
		p := s.selfPrimes.At(i)
		if p <= 1 {
			continue
		}
		pb := big.NewInt(p)
		mi.Quo(M, pb)
		if inv.ModInverse(&mi, pb) == nil {
			// Distinct primes guarantee invertibility; reaching here
			// is a programming error.
			panic(fmt.Sprintf("primelbl: no inverse for group %d node %d", g, i))
		}
		term.Mul(&mi, &inv)
		term.Mul(&term, big.NewInt(s.ordering[i]%p))
		x.Add(x, &term)
	}
	x.Mod(x, M)
	for g >= len(s.sc) {
		s.sc = append(s.sc, nil)
	}
	s.sc[g] = x
}

// InsertBefore simulates inserting one new node at document position
// pos (0-based: the new node takes ordering pos+1). All following
// nodes' ordering numbers shift by one and every group touching them —
// plus the new node's own group — has its SC value recomputed. It
// returns the number of SC recalculations, the quantity Table 4
// reports for Prime. Labels are untouched: Prime never re-labels.
//
// The new node is appended with the next unused prime as a child of
// parent (an index in 0..Len-1).
func (s *Scheme) InsertBefore(pos, parent int) (scRecalcs int, err error) {
	n := s.Len()
	if pos < 0 || pos > n {
		return 0, fmt.Errorf("primelbl: position %d out of range [0,%d]", pos, n)
	}
	if parent < 0 || parent >= n {
		return 0, fmt.Errorf("primelbl: parent %d out of range", parent)
	}
	// Shift the ordering numbers of following nodes.
	for i := 0; i < n; i++ {
		if s.ordering[i] >= int64(pos+1) {
			s.ordering[i]++
		}
	}
	// Append the new node (index n, prime p_n).
	p := nextPrime(s.selfPrimes.At(n - 1))
	s.selfPrimes.Append(p)
	s.labels.Append(new(big.Int).Mul(s.labels.At(parent), big.NewInt(p)))
	s.ordering = append(s.ordering, int64(pos+1))

	// Recompute the SC value of every group containing a node whose
	// ordering number changed, plus the new node's group.
	dirty := make(map[int]bool)
	for i := 0; i <= n; i++ {
		if s.ordering[i] >= int64(pos+1) {
			dirty[i/GroupSize] = true
		}
	}
	for g := range dirty {
		s.recomputeSC(g)
	}
	return len(dirty), nil
}

// Clone returns a scheme that answers as s does now and can be edited
// independently of it. The write-once columns are shared. The big.Int
// SC values are never mutated after assignment (recomputeSC installs a
// freshly allocated value), so their pointer slice is copied
// shallowly; the ordering numbers are shifted in place by InsertBefore
// and are copied.
func (s *Scheme) Clone() *Scheme {
	cl := *s
	cl.ordering = cow.Copy(s.ordering)
	cl.sc = cow.Copy(s.sc)
	return &cl
}

// firstPrimes returns the first n primes using a sieve sized with the
// prime-counting estimate.
func firstPrimes(n int) []int64 {
	if n <= 0 {
		return nil
	}
	// Upper bound for the n-th prime: n(ln n + ln ln n) for n >= 6.
	bound := 15
	if n >= 6 {
		f := float64(n)
		ln := logf(f)
		bound = int(f*(ln+logf(ln))) + 10
	}
	for {
		primes := sieve(bound, n)
		if len(primes) >= n {
			return primes[:n]
		}
		bound *= 2
	}
}

// sieve collects up to limit primes below bound.
func sieve(bound, limit int) []int64 {
	composite := make([]bool, bound+1)
	var primes []int64
	for i := 2; i <= bound && len(primes) < limit; i++ {
		if composite[i] {
			continue
		}
		primes = append(primes, int64(i))
		for j := i * i; j <= bound; j += i {
			composite[j] = true
		}
	}
	return primes
}

// nextPrime returns the smallest prime above p.
func nextPrime(p int64) int64 {
	for c := p + 1; ; c++ {
		if isPrime(c) {
			return c
		}
	}
}

// isPrime is a simple trial-division test, sufficient for the
// incremental case.
func isPrime(v int64) bool {
	if v < 2 {
		return false
	}
	for d := int64(2); d*d <= v; d++ {
		if v%d == 0 {
			return false
		}
	}
	return true
}

// logf is a dependency-free natural log good enough for sieve sizing.
func logf(x float64) float64 {
	// Use the identity ln(x) = 2 artanh((x-1)/(x+1)) with a short
	// series; accurate to well under 1% for x > 1, which is all the
	// sizing needs.
	if x <= 0 {
		return 0
	}
	// Range-reduce by powers of e≈2.718281828.
	const e = 2.718281828459045
	k := 0.0
	for x > e {
		x /= e
		k++
	}
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := t
	term := t
	for i := 3; i < 19; i += 2 {
		term *= t2
		sum += term / float64(i)
	}
	return k + 2*sum
}
