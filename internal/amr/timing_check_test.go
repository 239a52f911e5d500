package amr

import (
	"fmt"
	"os"
	"testing"
	"time"

	"samr/internal/solver"
)

// TestAppTiming is a manual scale check, enabled via SAMR_TIMING=<app>.
func TestAppTiming(t *testing.T) {
	name := os.Getenv("SAMR_TIMING")
	if name == "" {
		t.Skip("set SAMR_TIMING to run")
	}
	var k solver.Kernel
	switch name {
	case "TP2D":
		k = solver.NewTransport()
	case "SC2D":
		k = solver.NewScalarWave()
	case "BL2D":
		k = solver.NewBuckleyLeverett()
	case "RM2D":
		k = solver.NewEuler()
	}
	cfg := DefaultConfig()
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for s := 0; s < 100; s++ {
		step(t, d)
		if s%10 == 9 {
			h := d.Hierarchy()
			nb := 0
			for _, l := range h.Levels {
				nb += len(l.Boxes)
			}
			fmt.Printf("step %3d: %v levels=%d pts=%d boxes=%d\n", s+1, time.Since(start), len(h.Levels), h.NumPoints(), nb)
		}
	}
}
