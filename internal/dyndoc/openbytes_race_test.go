//go:build race

package dyndoc_test

func init() { replayRaceSlack = 24 }
