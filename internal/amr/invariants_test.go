package amr

import (
	"context"
	"math"
	"testing"

	"samr/internal/field"
	"samr/internal/geom"
	"samr/internal/solver"
)

// constKernel advects a field with constant velocity and tags a fixed
// moving window, regardless of the data. A constant initial field must
// remain exactly constant through every mechanism the driver exercises
// (subcycled advance, ghost exchange, bilinear prolongation, averaging
// restriction, regridding with data copy) — any interpolation or
// bookkeeping bug shows up as drift.
type constKernel struct {
	step int
}

func (k *constKernel) Name() string      { return "CONST" }
func (k *constKernel) NComp() int        { return 1 }
func (k *constKernel) Ghost() int        { return 1 }
func (k *constKernel) BC() field.BC      { return field.BCPeriodic }
func (k *constKernel) MaxSpeed() float64 { return 1 }

func (k *constKernel) Init(p *field.Patch, g solver.Geometry) {
	p.Fill(0, 7.25)
}

// set stores component c at cell (x, y).
func set(p *field.Patch, c, x, y int, v float64) { p.RowSpan(c, y, x, x+1)[0] = v }

func (k *constKernel) Step(p *field.Patch, t, dt float64, g solver.Geometry) {
	// First-order upwind with velocity (1, 0): on constant data the
	// update is exactly zero, so any deviation comes from the driver.
	old := clonePatch(p)
	p.Box.Cells(func(q geom.IntVect) {
		i, j := q[0], q[1]
		du := (old.At(0, i, j) - old.At(0, i-1, j)) / g.Dx
		set(p, 0, i, j, old.At(0, i, j)-dt*du)
	})
	k.step++
}

func (k *constKernel) Tag(p *field.Patch, g solver.Geometry, tag func(i, j int)) {
	// A drifting window forces constant regridding activity.
	off := (k.step / 8) % 8
	p.Box.Cells(func(q geom.IntVect) {
		x, y := g.Center(q[0], q[1])
		if x > 0.2+float64(off)*0.05 && x < 0.5+float64(off)*0.05 && y > 0.3 && y < 0.6 {
			tag(q[0], q[1])
		}
	})
}

func TestConstantFieldPreservedThroughAMR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 3
	k := &constKernel{}
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.levels) < 2 {
		t.Fatal("const kernel's forced tags should create refinement")
	}
	for s := 0; s < 12; s++ {
		step(t, d)
	}
	for l, ls := range d.levels {
		for _, p := range ls.patches {
			p.Box.Cells(func(q geom.IntVect) {
				v := p.At(0, q[0], q[1])
				if math.Abs(v-7.25) > 1e-12 {
					t.Fatalf("level %d cell %v drifted to %.15f", l, q, v)
				}
			})
		}
	}
}

func TestLevelsCoverTagsAfterRegrid(t *testing.T) {
	// After stepping, every cell the kernel would tag on level l must
	// be covered by level l+1 within one regrid interval: the purpose
	// of the TagBuffer.
	cfg := DefaultConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 2
	k := solver.NewTransport()
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ { // land exactly on a regrid boundary
		step(t, d)
	}
	if len(d.levels) < 2 {
		t.Skip("no refinement at this threshold")
	}
	var missing int
	fineFootprint := d.Hierarchy().Footprint(1)
	for _, p := range d.levels[0].patches {
		k.Tag(p, d.geometry(0), func(i, j int) {
			if !fineFootprint.ContainsPoint(geom.IV2(i, j)) {
				missing++
			}
		})
	}
	if missing > 0 {
		t.Errorf("%d tagged level-0 cells uncovered by level 1 right after regrid", missing)
	}
}

func TestDriverDeterminism(t *testing.T) {
	run := func() string {
		cfg := DefaultConfig()
		cfg.BaseSize = 16
		cfg.MaxLevels = 3
		d, err := New(solver.NewBuckleyLeverett(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 6; s++ {
			step(t, d)
		}
		return d.Hierarchy().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("driver not deterministic:\n%s\n%s", a, b)
	}
}

func TestTraceWorkloadConsistency(t *testing.T) {
	// Workload and point counts recorded through the trace must match
	// recomputation from the boxes (no stale caching anywhere).
	tr, err := Run(context.Background(), solver.NewScalarWave(), smallConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tr.Snapshots {
		var pts int64
		for _, lev := range s.H.Levels {
			pts += lev.Boxes.TotalVolume()
		}
		if pts != s.H.NumPoints() {
			t.Errorf("snapshot %d: NumPoints %d != recount %d", i, s.H.NumPoints(), pts)
		}
		if s.H.Workload() < s.H.NumPoints() {
			t.Errorf("snapshot %d: workload below point count", i)
		}
	}
}
