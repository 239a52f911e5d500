// Package lib plants the three things a bare-identifier matcher cannot
// see, for TestCensusOnPlantedModule in reach_test.go.
package lib

// Sub is reached: cmd/tool calls it.
func Sub(a, b int) int { return a - b }

// Vec is reached: cmd/tool builds one.
type Vec struct{ X int }

// Sub shares its name with the reached function and has no caller.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X} }

// Shape is the interface cmd/tool holds a Square through.
type Shape interface{ Area() int }

// Square is reached: cmd/tool builds one.
type Square struct{ Side int }

// Area has no direct caller: it is reached through Shape only.
func (s Square) Area() int { return s.Side * s.Side }

// Probe is used by lib_test.go only.
type Probe struct{}

// Config is a settings type: cmd/tool sets Set by key; only this
// package's DefaultConfig sets Unset, which does not count.
type Config struct {
	Set   int
	Unset int
}

// DefaultConfig is the settings' own package setting Unset.
func DefaultConfig() Config { return Config{Unset: 1} }

// RetryPolicy is a settings type: cmd/tool assigns Retries.
type RetryPolicy struct{ Retries int }
