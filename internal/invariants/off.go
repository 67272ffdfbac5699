//go:build !invariants

package invariants

// Enabled is off in normal builds: a check behind it compiles to nothing.
const Enabled = false
