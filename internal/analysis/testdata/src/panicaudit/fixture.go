// Package panicaudit is a labelvet fixture: one vetted panic (listed
// in the test's allowlist), one unvetted panic, and one method panic.
package panicaudit

import (
	"errors"
	"sync"
)

// MustVetted is covered by the fixture allowlist.
func MustVetted(ok bool) {
	if !ok {
		panic("vetted: listed in the allowlist")
	}
}

// Unvetted must be flagged: it is not in the allowlist.
func Unvetted() {
	panic("unvetted") // want `unvetted panic in Unvetted`
}

// T carries a method panic to exercise receiver key rendering.
type T struct{}

// Explode must be flagged under the key "(*T).Explode".
func (t *T) Explode() {
	panic("kaboom") // want `unvetted panic in \(\*T\).Explode`
}

// ReturnsError is how the analyzer wants failures surfaced.
func ReturnsError() error {
	return errors.New("no panic here")
}

// badAnnotations exercises the vet: annotation syntax diagnostics
// that panicaudit reports for the whole suite.
type badAnnotations struct {
	mu sync.Mutex
	a  int // vet:guardedby nosuch // want `vet:guardedby names unknown sibling field "nosuch"`
	b  int // vet:guardedby a // want `vet:guardedby a: field a is not a sync\.Mutex or sync\.RWMutex`
	c  int // vet:bogus // want `unknown vet: verb "bogus"`
	d  int // vet:durable // want `unknown vet: verb "durable"`
}

// NoError carries a verb the language does not have.
//
// vet:ack // want `unknown vet: verb "ack"`
func NoError() {}

// BadHolds names a root that is neither receiver nor parameter.
//
// vet:holds q.mu // want `vet:holds path "q\.mu": "q" is not the receiver or a parameter of BadHolds`
func BadHolds() {}

// Misplaced hangs an annotation where the language gives it no
// meaning.
func Misplaced() int {
	// vet:holds m.mu // want `misplaced vet:holds annotation: only struct fields and function declarations take vet: comments`
	return 0
}
