package main

import "planted/internal/lib"

func main() {
	var s lib.Shape = lib.Square{Side: lib.Sub(3, 1)}
	println(s.Area(), lib.Vec{X: 1}.X)
}
