//go:build !invariants

package pagestore

// invariantsEnabled is off in normal builds: the frame self-check
// compiles to nothing.
const invariantsEnabled = false
