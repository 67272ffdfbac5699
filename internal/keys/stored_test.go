package keys

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/cdbs"
	"repro/internal/qed"
)

// boxedPath is what the stored-form kernels replaced under one codec:
// the boxed kernel (cdbs.Between, cdbs.EncodeBetween, cdbs.Encode and
// their qed namesakes, which those packages' own tests hold equal to
// the RefNBetween references), its result copied into the arena by put.
type boxedPath struct {
	codec    Codec
	between  func(a *Arena, l, r []byte) (Ref, error)
	nbetween func(a *Arena, l, r []byte, n int) ([]Ref, error)
	encode   func(a *Arena, n int) ([]Ref, error)
}

func boxedCDBS(c Codec) boxedPath {
	return boxedPath{
		codec: c,
		between: func(a *Arena, l, r []byte) (Ref, error) {
			m, err := cdbs.Between(bitsAt(l), bitsAt(r))
			if err != nil {
				return 0, err
			}
			return a.putBits(m)
		},
		nbetween: func(a *Arena, l, r []byte, n int) ([]Ref, error) {
			ms, err := cdbs.EncodeBetween(bitsAt(l), bitsAt(r), n)
			return putAll(ms, err, a.putBits)
		},
		encode: func(a *Arena, n int) ([]Ref, error) {
			ms, err := cdbs.Encode(n)
			return putAll(ms, err, a.putBits)
		},
	}
}

func boxedPaths() []boxedPath {
	// QED has no stored-form kernels yet (ROADMAP): its row holds the
	// arena's plumbing to the contract a stored kernel will have to meet.
	return []boxedPath{boxedCDBS(VCDBS()), boxedCDBS(FCDBS()), {
		codec: QED(),
		between: func(a *Arena, l, r []byte) (Ref, error) {
			m, err := qed.Between(codeAt(l), codeAt(r))
			if err != nil {
				return 0, err
			}
			return a.putCode(m)
		},
		nbetween: func(a *Arena, l, r []byte, n int) ([]Ref, error) {
			ms, err := qed.EncodeBetween(codeAt(l), codeAt(r), n)
			return putAll(ms, err, a.putCode)
		},
		encode: func(a *Arena, n int) ([]Ref, error) {
			ms, err := qed.Encode(n)
			return putAll(ms, err, a.putCode)
		},
	}}
}

// pair runs one history down both paths: got through the arena's own
// methods, want through the boxed kernels. Key i of one is key i of
// the other; key 0 is the open bound, which both codecs store as the
// one byte 0.
type pair struct {
	t         *testing.T
	p         boxedPath
	got, want Arena
	gots      []Ref // in key order, an open bound at either end
	wants     []Ref
}

func newPair(t *testing.T, p boxedPath) *pair {
	t.Helper()
	q := &pair{t: t, p: p}
	for _, a := range []*Arena{&q.got, &q.want} {
		var err error
		if *a, err = NewArena(p.codec); err != nil {
			t.Fatal(err)
		}
		if _, dst, err := a.grow(1); err != nil {
			t.Fatal(err)
		} else {
			_ = append(dst, 0)
		}
	}
	q.gots, q.wants = []Ref{0, 0}, []Ref{0, 0}
	return q
}

// same holds freshly assigned keys equal byte for byte, and both paths
// to the same verdict.
func (q *pair) same(what string, gots, wants []Ref, gerr, werr error) bool {
	q.t.Helper()
	if (gerr == nil) != (werr == nil) {
		q.t.Fatalf("%s %s: stored path err = %v, boxed path err = %v", q.p.codec.Name(), what, gerr, werr)
	}
	if gerr != nil {
		return false
	}
	if len(gots) != len(wants) {
		q.t.Fatalf("%s %s: %d keys, boxed path %d", q.p.codec.Name(), what, len(gots), len(wants))
	}
	for i := range gots {
		if g, w := q.got.Stored(gots[i]), q.want.Stored(wants[i]); !bytes.Equal(g, w) {
			q.t.Fatalf("%s %s: key %d stored as %x, boxed path %x", q.p.codec.Name(), what, i, g, w)
		}
	}
	return true
}

// insert splices the keys just put into gap at (between keys at and
// at+1) into both lists.
func (q *pair) insert(at int, gots, wants []Ref) {
	q.gots = append(q.gots[:at+1], append(append([]Ref(nil), gots...), q.gots[at+1:]...)...)
	q.wants = append(q.wants[:at+1], append(append([]Ref(nil), wants...), q.wants[at+1:]...)...)
}

func (q *pair) two(at int) {
	g1, g2, gerr := q.got.TwoBetween(q.gots[at], q.gots[at+1], 0)
	w1, werr := q.p.between(&q.want, q.want.at(q.wants[at]), q.want.at(q.wants[at+1]))
	var w2 Ref
	if werr == nil {
		w2, werr = q.p.between(&q.want, q.want.at(w1), q.want.at(q.wants[at+1]))
	}
	if q.same("TwoBetween", []Ref{g1, g2}, []Ref{w1, w2}, gerr, werr) {
		q.insert(at, []Ref{g1, g2}, []Ref{w1, w2})
	}
}

func (q *pair) nbetween(at, n int) {
	gs, gerr := q.got.NBetween(q.gots[at], q.gots[at+1], n, 0, nil)
	ws, werr := q.p.nbetween(&q.want, q.want.at(q.wants[at]), q.want.at(q.wants[at+1]), n)
	if q.same("NBetween("+strconv.Itoa(n)+")", gs, ws, gerr, werr) {
		q.insert(at, gs, ws)
	}
}

// totals compares the size accounting over every key but the bounds.
func (q *pair) totals() {
	q.t.Helper()
	g, w := q.got.TotalBits(q.gots[1:len(q.gots)-1]), q.want.TotalBits(q.wants[1:len(q.wants)-1])
	if g != w {
		q.t.Errorf("%s: TotalBits %d, boxed path %d", q.p.codec.Name(), g, w)
	}
}

// TestStoredKernelsMatchBoxed is the differential of the stored-form
// kernels: under V-CDBS, F-CDBS and QED every gap of a seeded history —
// gaps open at one end or both, adjacent codes, the 1 500-deep single
// gap of the label-updates workload, runs of up to 5 000 — gets keys
// byte-equal to the boxed kernel's, and equal TotalBits.
func TestStoredKernelsMatchBoxed(t *testing.T) {
	for _, p := range boxedPaths() {
		p := p
		t.Run(p.codec.Name(), func(t *testing.T) {
			t.Parallel()
			// A random history: every gap is fair game, the two open at
			// one end included, and piles make adjacent codes.
			q := newPair(t, p)
			rng := rand.New(rand.NewSource(26))
			for step, at := 0, 0; step < 600; step++ {
				// One time in four, again where the last keys went: in
				// front of them, behind the bound they were derived from.
				if rng.Intn(4) > 0 {
					at = rng.Intn(len(q.gots) - 1)
				}
				if rng.Intn(2) == 0 {
					q.two(at)
				} else {
					q.nbetween(at, rng.Intn(14))
				}
			}
			q.totals()
			if _, err := q.got.NBetween(q.gots[1], q.gots[2], -1, 0, nil); err == nil {
				t.Error("NBetween(-1) succeeded")
			}

			// One gap, 1 500 deep: each pair goes in front of the pair
			// before it, behind a fixed left neighbour.
			q = newPair(t, p)
			q.nbetween(0, 4)
			for i := 0; i < 1500; i++ {
				q.two(2)
			}
			// A limit below what the gap now gives refuses before it
			// writes: on the pair's first key, on a run's listed ranks.
			size, short := q.got.Size(), len(q.got.Stored(q.gots[2]))/2
			if _, _, err := q.got.TwoBetween(q.gots[2], q.gots[3], short); !errors.Is(err, ErrTooLong) {
				t.Errorf("TwoBetween under a limit of %d: %v", short, err)
			}
			if _, err := q.got.NBetween(q.gots[2], q.gots[3], 9, short, []uint32{8}); !errors.Is(err, ErrTooLong) {
				t.Errorf("NBetween under a limit of %d: %v", short, err)
			}
			if q.got.Size() != size {
				t.Errorf("refused calls grew the arena from %d to %d bytes", size, q.got.Size())
			}
			// And a run into the bottom of it.
			q.nbetween(2, 1000)
			q.nbetween(3, 1)
			q.totals()

			// Algorithm 2, n from 0 to 5 000: every n to 300, then steps.
			for n := 0; n <= 5000; n++ {
				if n > 300 && n%97 != 0 && n != 5000 {
					continue
				}
				q := newPair(t, p)
				// Encode wants a fresh arena: drop the bound.
				var err error
				if q.got, err = NewArena(p.codec); err != nil {
					t.Fatal(err)
				}
				gs, gerr := q.got.Encode(n)
				ws, werr := p.encode(&q.want, n)
				if !q.same("Encode("+strconv.Itoa(n)+")", gs, ws, gerr, werr) {
					t.Fatalf("Encode(%d): %v", n, gerr)
				}
				if g, w := q.got.TotalBits(gs), q.want.TotalBits(ws); g != w {
					t.Errorf("Encode(%d): TotalBits %d, boxed path %d", n, g, w)
				}
				// The room was sized for exactly these keys.
				if len(q.got.data) != cap(q.got.data) && p.codec.Name() != "QED" {
					t.Errorf("Encode(%d): arena of %d bytes in room for %d", n, len(q.got.data), cap(q.got.data))
				}
			}
			if _, err := q.got.Encode(-1); err == nil {
				t.Error("Encode(-1) succeeded")
			}
		})
	}
}

// cdbsCorpus returns the inputs cdbs.FuzzEncodeBetween has collected:
// two bit strings and a count each.
func cdbsCorpus(t testing.TB) (out [][3]string) {
	files, err := filepath.Glob("../cdbs/testdata/fuzz/FuzzEncodeBetween/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus under internal/cdbs/testdata: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var in []string
		for _, line := range strings.Split(string(data), "\n")[1:] {
			if open := strings.IndexByte(line, '('); open >= 0 && strings.HasSuffix(line, ")") {
				arg := line[open+1 : len(line)-1]
				if s, err := strconv.Unquote(arg); err == nil {
					arg = s
				}
				in = append(in, arg)
			}
		}
		if len(in) != 3 {
			t.Fatalf("%s: %d values, want 3", f, len(in))
		}
		out = append(out, [3]string{in[0], in[1], in[2]})
	}
	return out
}

// FuzzArenaBetween puts arbitrary bounds, valid or not, into both
// paths' arenas and asks each for a run and a pair of keys: the same
// verdict and the same bytes. The bit strings serve QED too, read
// as digits. Seeded from the corpus of cdbs.FuzzEncodeBetween; run it
// under -tags invariants to have every stored code's ending and order
// asserted on a view of what was written.
func FuzzArenaBetween(f *testing.F) {
	for _, in := range cdbsCorpus(f) {
		n, err := strconv.Atoi(in[2])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(in[0], in[1], n)
	}
	f.Add("", "", 5)
	f.Add("01", "1", 16)
	f.Add("0101", "011", 200)
	f.Add("00", "01", 3) // as QED digits: the adjacent pair 12, 13
	f.Add("11", "01", 4) // not ordered
	f.Add("10", "11", 2) // invalid left
	f.Add("1", "11", -1) // negative count
	f.Fuzz(func(t *testing.T, ls, rs string, n int) {
		if n > 4096 {
			n %= 4096
		}
		l, lerr := bitstr.Parse(ls)
		r, rerr := bitstr.Parse(rs)
		if lerr != nil || rerr != nil {
			return
		}
		for _, p := range boxedPaths() {
			q := newPair(t, p)
			for _, a := range []*Arena{&q.got, &q.want} {
				var lr, rr Ref
				var err error
				if p.codec.Name() == "QED" {
					// Bits 0 and 1 as the digits 2 and 3, but a leading run
					// of zeros as 1s, so that every digit occurs.
					digits := func(s string) qed.Code {
						d := []byte(s)
						for i := range d {
							d[i] -= '0' - 2
						}
						for i := 0; i < len(d)-1 && d[i] == 2; i++ {
							d[i] = 1
						}
						return qed.FromDigits(d)
					}
					if lr, err = a.putCode(digits(ls)); err == nil {
						rr, err = a.putCode(digits(rs))
					}
				} else if lr, err = a.putBits(l); err == nil {
					rr, err = a.putBits(r)
				}
				if err != nil {
					t.Fatal(err)
				}
				if a == &q.got {
					q.gots = []Ref{lr, rr}
				} else {
					q.wants = []Ref{lr, rr}
				}
			}
			q.nbetween(0, n)
			q.two(0)
		}
	})
}

// TestArenaChunks walks an arena over the three ways a key can meet the
// end of a chunk — it fills the chunk exactly, it would straddle the
// end, it is longer than any chunk the arena opens unasked — and then
// goes on in a copy that lost the tail to its original. Every key lies
// whole in one chunk, reads back as it was put, and no step moves a key
// put before it.
func TestArenaChunks(t *testing.T) {
	type put struct {
		r    Ref
		code qed.Code
		at   *byte
	}
	key := func(a *Arena, puts *[]put, size int) Ref { // a key of size stored bytes
		t.Helper()
		code := qed.FromDigits(bytes.Repeat([]byte{byte(1 + len(*puts)%3)}, size-1))
		r, err := a.putCode(code)
		if err != nil {
			t.Fatal(err)
		}
		*puts = append(*puts, put{r, code, &a.at(r)[0]})
		return r
	}
	check := func(what string, a *Arena, puts []put) {
		t.Helper()
		size := 0
		for i, p := range puts {
			if got := a.Key(p.r).(qed.Code); got.Compare(p.code) != 0 || len(a.Stored(p.r)) != p.code.Len()+1 {
				t.Fatalf("%s: key %d at %d reads back %d digits, put %d", what, i, p.r, got.Len(), p.code.Len())
			}
			if &a.at(p.r)[0] != p.at {
				t.Fatalf("%s: key %d at %d moved", what, i, p.r)
			}
			size += p.code.Len() + 1
		}
		if a.Size() != size || a.Cap() < size {
			t.Fatalf("%s: Size %d, Cap %d, keys of %d bytes", what, a.Size(), a.Cap(), size)
		}
	}
	a, err := NewArena(QED())
	if err != nil {
		t.Fatal(err)
	}
	var as []put
	stride := func(r Ref) int { return int(r-Ref(len(a.data))) >> chunkShift }

	first := key(&a, &as, 10) // the first chunk, exactly
	if first != 0 || len(a.data) != 10 || cap(a.data) != 10 {
		t.Fatalf("first key at %d in a chunk of %d/%d bytes", first, len(a.data), cap(a.data))
	}
	// A second chunk of minChunk bytes, filled to the last byte.
	k1 := key(&a, &as, 100)
	k2 := key(&a, &as, minChunk-100)
	if k1 != 10 || k2 != k1+100 || len(a.open) != minChunk || cap(a.open) != minChunk || len(a.more) != 1 {
		t.Fatalf("keys at %d and %d in an open chunk of %d/%d bytes", k1, k2, len(a.open), cap(a.open))
	}
	// The next opens a third, a stride on; with 6 bytes left in it, a
	// key of 7 goes whole to a fourth and leaves them zero.
	k3 := key(&a, &as, minChunk-6)
	k4 := key(&a, &as, 7)
	if stride(k3) != 1 || stride(k4) != 2 || !bytes.Equal(a.more[1][minChunk-6:minChunk], make([]byte, 6)) {
		t.Fatalf("keys at %d and %d: strides %d and %d", k3, k4, stride(k3), stride(k4))
	}
	// A key longer than chunkSize has a chunk of its own, of exactly its
	// size and under both strides it covers; the next key starts the
	// stride after.
	k5 := key(&a, &as, chunkSize+1000)
	k6 := key(&a, &as, 5)
	if stride(k5) != 3 || stride(k6) != 5 || len(a.more[3]) != chunkSize+1000 || &a.more[4][0] != &a.more[3][chunkSize] {
		t.Fatalf("keys at %d and %d: strides %d and %d, a chunk of %d bytes", k5, k6, stride(k5), stride(k6), len(a.more[3]))
	}
	check("original", &a, as)

	// A copy that appends after its original did finds the tail taken: it
	// opens a chunk of its own, listed in a table of its own, and the two
	// go on through more chunks without meeting.
	b, bs := a, append([]put(nil), as...)
	ka, kb := key(&a, &as, 9), key(&b, &bs, 9)
	if ka != k6+5 || stride(kb) != 6 || &b.at(kb)[0] == &a.at(ka)[0] || &b.at(k6)[0] != &a.at(k6)[0] {
		t.Fatalf("the original's key at %d, the copy's at %d", ka, kb)
	}
	for i := 0; i < 40; i++ {
		key(&a, &as, 100)
		key(&b, &bs, 99)
	}
	check("original after the copy", &a, as)
	check("copy", &b, bs)
	if a.Compare(k1, k5) != b.Compare(k1, k5) || a.Compare(k5, k1) != -a.Compare(k1, k5) {
		t.Error("Compare across chunks disagrees between the arena and its copy")
	}
}
