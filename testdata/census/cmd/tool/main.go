package main

import "planted/internal/lib"

func main() {
	var s lib.Shape = lib.Square{Side: lib.Sub(3, 1)}
	cfg := lib.Config{Set: 1}
	var p lib.RetryPolicy
	p.Retries = 2
	println(s.Area(), lib.Vec{X: 1}.X, cfg.Unset, p.Retries)
}
