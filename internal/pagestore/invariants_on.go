//go:build invariants

package pagestore

// invariantsEnabled turns on the frame self-check (checkPage on every
// page the pager writes back and every page a tree copies on write).
// Build with `-tags invariants`.
const invariantsEnabled = true
