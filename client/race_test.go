//go:build race

package client

// A -race build's sync.Pool drops a quarter of what it is given, at
// random, so its pins average enough calls for the mean to settle.
func init() { raceSlack, pinRuns = 4, 20_000 }
