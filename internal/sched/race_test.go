//go:build race

package sched

// The race detector's sync.Pool drops a random share of what is put back, so
// what fmt allocates for each process name varies from run to run.
func init() { raceEnabled = true }
