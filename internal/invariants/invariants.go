// Package invariants is the switch of the runtime self-checks that
// bitstr, cdbs, cow, keys, pagestore and plan run behind the
// `invariants` build tag, and the one place they panic.
package invariants

import "fmt"

// Violated reports a broken internal invariant of package pkg found by
// a self-check. It is the checks' single panic funnel, so the labelvet
// panic allowlist stays independent of build tags.
func Violated(pkg, format string, args ...any) {
	panic(pkg + ": invariant violated: " + fmt.Sprintf(format, args...))
}
