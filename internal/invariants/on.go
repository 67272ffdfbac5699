//go:build invariants

package invariants

// Enabled is on: build or test with `-tags invariants` (CI does).
const Enabled = true
