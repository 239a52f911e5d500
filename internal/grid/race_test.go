//go:build race

package grid

func init() { raceEnabled = true }
