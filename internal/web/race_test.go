//go:build race

package web

// A -race build's sync.Pool drops a quarter of what it is given, and
// its appends allocate more.
func init() { raceSlack = 10 }
