//go:build invariants

package pagestore

// invariantsEnabled turns on the writeback self-check (checkEncoding on
// every page the pager writes). Build with `-tags invariants`.
const invariantsEnabled = true
