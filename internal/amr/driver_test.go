package amr

import (
	"context"
	"testing"

	"samr/internal/geom"
	"samr/internal/solver"
)

// smallConfig keeps tests fast: 16x16 base, 3 levels.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 3
	return cfg
}

// step advances d by one coarse step under a context nothing cancels.
func step(t *testing.T, d *Driver) {
	t.Helper()
	if err := d.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestNewCreatesInitialRefinement(t *testing.T) {
	d, err := New(solver.NewTransport(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.levels) < 2 {
		t.Errorf("initial hierarchy has %d levels; the pulse should refine", len(d.levels))
	}
	if err := d.Hierarchy().Validate(); err != nil {
		t.Errorf("initial hierarchy invalid: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := smallConfig()
	bad.BaseSize = 2
	if _, err := New(solver.NewTransport(), bad); err == nil {
		t.Error("BaseSize=2 should be rejected")
	}
	bad = smallConfig()
	bad.RefRatio = 1
	if _, err := New(solver.NewTransport(), bad); err == nil {
		t.Error("RefRatio=1 should be rejected")
	}
	bad = smallConfig()
	bad.RegridEvery = 0
	if _, err := New(solver.NewTransport(), bad); err == nil {
		t.Error("RegridEvery=0 should be rejected")
	}
}

func TestStepMaintainsInvariants(t *testing.T) {
	d, err := New(solver.NewTransport(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		step(t, d)
		if err := d.Hierarchy().Validate(); err != nil {
			t.Fatalf("step %d: invalid hierarchy: %v", s, err)
		}
	}
	if d.step != 10 {
		t.Errorf("completed coarse steps = %d", d.step)
	}
	if d.Time() <= 0 {
		t.Errorf("Time = %f", d.Time())
	}
}

func TestLevelTimesStayAligned(t *testing.T) {
	d, err := New(solver.NewScalarWave(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		step(t, d)
		// After a full coarse step all levels must be at the same time.
		t0 := d.levels[0].time
		for l, ls := range d.levels {
			if diff := ls.time - t0; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("step %d: level %d time %.15f != base %.15f", s, l, ls.time, t0)
			}
		}
	}
}

func TestHierarchyTracksMovingFeature(t *testing.T) {
	d, err := New(solver.NewTransport(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.levels) < 2 {
		t.Skip("no refinement to track")
	}
	first := d.Hierarchy()
	for s := 0; s < 20; s++ {
		step(t, d)
	}
	last := d.Hierarchy()
	if len(last.Levels) < 2 {
		t.Fatal("refinement disappeared while the pulse is still moving")
	}
	// The refined footprint must have moved: the overlap between the
	// first and last level-1 regions should be below their full size.
	a, b := first.Levels[1].Boxes, last.Levels[1].Boxes
	ov := geom.OverlapVolume(a, b)
	if ov >= a.TotalVolume() && ov >= b.TotalVolume() {
		t.Error("refined region did not move over 20 rotation steps")
	}
}

func TestRunProducesValidTrace(t *testing.T) {
	tr, err := Run(context.Background(), solver.NewTransport(), smallConfig(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 13 { // initial snapshot + 12 steps
		t.Fatalf("trace has %d snapshots, want 13", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.App != "TP2D" {
		t.Errorf("App = %q", tr.App)
	}
	// Snapshots are deep copies: mutating one must not affect others.
	tr.Snapshots[0].H.Levels[0].Boxes[0] = tr.Snapshots[0].H.Levels[0].Boxes[0].Grow(1)
	if err := tr.Snapshots[1].H.Validate(); err != nil {
		t.Errorf("snapshot 1 corrupted by snapshot 0 mutation: %v", err)
	}
}

func TestAllKernelsRunStably(t *testing.T) {
	kernels := []solver.Kernel{
		solver.NewTransport(), solver.NewScalarWave(),
		solver.NewBuckleyLeverett(), solver.NewEuler(),
	}
	for _, k := range kernels {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			t.Parallel()
			tr, err := Run(context.Background(), k, smallConfig(), 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			// Every kernel should produce at least some refinement at
			// some point (they all have steep features).
			refined := false
			for _, s := range tr.Snapshots {
				if len(s.H.Levels) > 1 {
					refined = true
					break
				}
			}
			if !refined {
				t.Errorf("%s never refined", k.Name())
			}
		})
	}
}

func TestRegridDropsVanishedLevels(t *testing.T) {
	// A transport kernel with an impossible threshold never tags, so
	// after the first regrid cadence all fine levels must vanish.
	k := solver.NewTransport()
	k.TagThreshold = 1e9
	d, err := New(k, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.levels) != 1 {
		t.Fatalf("threshold 1e9 should suppress initial refinement, got %d levels", len(d.levels))
	}
	for s := 0; s < 5; s++ {
		step(t, d)
	}
	if len(d.levels) != 1 {
		t.Errorf("levels reappeared without tags: %d", len(d.levels))
	}
}
