//go:build race

package client

// A -race build's sync.Pool drops a quarter of what it is given.
func init() { raceSlack = 4 }
