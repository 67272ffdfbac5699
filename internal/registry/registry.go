// Package registry enumerates every labeling scheme in the CDBS
// paper's evaluation under its figure name, so harnesses and tools can
// iterate over them uniformly.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/containment"
	"repro/internal/keys"
	"repro/internal/ordpath"
	"repro/internal/prefix"
	"repro/internal/primelbl"
	"repro/internal/scheme"
	"repro/internal/xmltree"
)

// Entry is one scheme. Its builder labels a document in the form a
// live document edits; Build and Live offer it to a labeling built alone
// and to a served document.
type Entry struct {
	Name string
	// Dynamic reports whether single insertions never re-label
	// (Table 4's zero rows).
	Dynamic bool
	build   scheme.Builder
}

// Build labels doc for use alone: its tree edits its runs as Live's
// does, and keeps Children, a read-only mirror of them, for readers that
// index the lists (scheme.Tree.Unpack).
func (e Entry) Build(doc *xmltree.Document) (scheme.Labeling, error) {
	l, err := e.build(doc)
	if err != nil {
		return nil, err
	}
	l.Tree().Unpack()
	return l, nil
}

// Live labels doc for a served document (dyndoc): its tree has no
// Children, and edits its runs in place until its first clone.
func (e Entry) Live(doc *xmltree.Document) (scheme.Labeling, error) { return e.build(doc) }

// All returns every scheme in the order the paper's tables list them.
func All() []Entry {
	return []Entry{
		{Name: "Prime", Dynamic: true, build: primelbl.BuildLabeling},
		{Name: "DeweyID(UTF8)-Prefix", Dynamic: false, build: prefix.Build(prefix.Dewey())},
		{Name: "Binary-String-Prefix", Dynamic: false, build: prefix.Build(prefix.Cohen())},
		{Name: "OrdPath1-Prefix", Dynamic: true, build: prefix.Build(prefix.OrdPath(ordpath.Table1))},
		{Name: "OrdPath2-Prefix", Dynamic: true, build: prefix.Build(prefix.OrdPath(ordpath.Table2))},
		{Name: "QED-Prefix", Dynamic: true, build: prefix.Build(prefix.QEDCodec())},
		{Name: "V-CDBS-Prefix", Dynamic: true, build: prefix.Build(prefix.VCDBSCodec())},
		{Name: "Float-point-Containment", Dynamic: true, build: containment.Build(keys.Float())},
		{Name: "V-Binary-Containment", Dynamic: false, build: containment.Build(keys.VBinary())},
		{Name: "F-Binary-Containment", Dynamic: false, build: containment.Build(keys.FBinary())},
		{Name: "V-CDBS-Containment", Dynamic: true, build: containment.Build(keys.VCDBS())},
		{Name: "F-CDBS-Containment", Dynamic: true, build: containment.Build(keys.FCDBS())},
		{Name: "QED-Containment", Dynamic: true, build: containment.Build(keys.QED())},
	}
}

// Names returns every scheme name, sorted.
func Names() []string {
	entries := All()
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}

// ErrUnknownScheme is the sentinel every failed Lookup matches with
// errors.Is, whatever the requested name was.
var ErrUnknownScheme = errors.New("registry: unknown scheme")

// UnknownSchemeError reports a failed Lookup: the requested name plus
// the registered name closest to it by edit distance, when one is
// close enough to plausibly be a typo. It unwraps to
// ErrUnknownScheme.
type UnknownSchemeError struct {
	Name       string // the requested scheme name
	Suggestion string // nearest registered name; "" when none is close
}

// Error renders a did-you-mean hint when a near match exists, and the
// full known-name list otherwise.
func (e *UnknownSchemeError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("registry: unknown scheme %q (did you mean %q?)", e.Name, e.Suggestion)
	}
	return fmt.Sprintf("registry: unknown scheme %q (known: %v)", e.Name, Names())
}

// Unwrap makes errors.Is(err, ErrUnknownScheme) hold.
func (e *UnknownSchemeError) Unwrap() error { return ErrUnknownScheme }

// Lookup finds a scheme by its figure name. A failed lookup returns
// an *UnknownSchemeError carrying a nearest-match suggestion; match
// it with errors.Is(err, ErrUnknownScheme).
func Lookup(name string) (Entry, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, &UnknownSchemeError{Name: name, Suggestion: nearest(name)}
}

// nearest returns the registered name with the smallest
// case-insensitive edit distance to name, when that distance is small
// enough to plausibly be a typo (at most 3 edits or half the
// requested name, whichever is larger).
func nearest(name string) string {
	limit := 3
	if h := len(name) / 2; h > limit {
		limit = h
	}
	best, bestDist := "", limit+1
	for _, e := range All() {
		if d := editDistance(strings.ToLower(name), strings.ToLower(e.Name)); d < bestDist {
			best, bestDist = e.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b, two-row
// dynamic programming over bytes.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
