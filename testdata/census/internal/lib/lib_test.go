package lib

import "testing"

func TestProbe(t *testing.T) {
	_ = Probe{}
	if got := (Vec{X: 3}).Sub(Vec{X: 1}); got.X != 2 {
		t.Fatal(got)
	}
}
