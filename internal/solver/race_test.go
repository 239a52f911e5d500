//go:build race

package solver

// The race detector makes sync.Pool drop a share of what it is given,
// so a pooled window is allocated again now and then.
func init() { raceEnabled = true }
