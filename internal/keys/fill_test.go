package keys

import (
	"slices"

	"repro/internal/bitstr"
	"repro/internal/qed"
)

// list is a Sink that keeps a run's keys in a list; bounded lists the
// ranks the limit bounds.
type list struct {
	refs    []Ref
	bounded []uint32
	asked   uint32
}

func (l *list) Bounded() bool {
	l.asked++
	return slices.Contains(l.bounded, l.asked-1)
}

func (l *list) Put(r Ref) { l.refs = append(l.refs, r) }

// Encode is Initial as a list, for the tests that hold a run in one.
func (a *Arena) Encode(n int) ([]Ref, error) {
	out := &list{refs: []Ref{}}
	if err := a.Initial(n, out); err != nil {
		return nil, err
	}
	return out.refs, nil
}

// NBetween is Fill as a list; limit bounds the keys at the ranks
// bounded lists.
func (a *Arena) NBetween(l, r Ref, n, limit int, bounded []uint32) ([]Ref, error) {
	out := &list{refs: []Ref{}, bounded: bounded}
	if err := a.Fill(l, r, n, limit, out); err != nil {
		return nil, err
	}
	return out.refs, nil
}

// putAll stores a boxed kernel's run of keys with the codec's put.
func putAll[K any](ks []K, err error, put func(K) (Ref, error)) ([]Ref, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Ref, len(ks))
	for i, k := range ks {
		if out[i], err = put(k); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stored returns the stored form of key r: a slice of the arena, or a
// copy for a key held in its Ref.
func (a *Arena) Stored(r Ref) []byte { return a.exact(new(wordBuf), r) }

// put stores one key the way a run writes it.
func put[K any](a *Arena, k K, size func(K) int, enc func([]byte, K) ([]byte, Ref)) (r Ref, err error) {
	err = putKeys(a, []K{k}, nil, size, enc, func(m Ref) { r = m })
	return r, err
}

func (a *Arena) putBits(m bitstr.BitString) (Ref, error) {
	return put(a, m, bitstr.BitString.EncodedLen, appendBits)
}

func (a *Arena) putCode(c qed.Code) (Ref, error) { return put(a, c, a.codeSize, a.appendCode) }
