//go:build race

package dyndoc

// A -race build's sync.Pool drops a quarter of what it is given, and
// its appends allocate more.
func init() { raceSlackBytes, raceSlackAllocs = 120, 1 }
