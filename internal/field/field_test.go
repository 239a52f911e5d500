package field

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"samr/internal/geom"
)

// set stores component c at cell (x, y): At's counterpart for fixtures.
func set(p *Patch, c, x, y int, v float64) { p.data[p.index(c, x, y)] = v }

// clone returns a deep copy of p, the before-and-after snapshot the
// reference checks compare against.
func (p *Patch) clone() *Patch {
	q := *p
	q.data = slices.Clone(p.data)
	return &q
}

func TestPatchIndexingAndFill(t *testing.T) {
	p := NewPatch(geom.NewBox2(2, 3, 6, 7), 1, 2)
	if p.GrownBox() != geom.NewBox2(1, 2, 7, 8) {
		t.Fatalf("GrownBox = %v", p.GrownBox())
	}
	p.Fill(0, 1.5)
	p.Fill(1, -2.0)
	if p.At(0, 2, 3) != 1.5 || p.At(1, 5, 6) != -2.0 {
		t.Error("Fill/At mismatch")
	}
	set(p, 0, 4, 5, 9.0)
	if p.At(0, 4, 5) != 9.0 {
		t.Error("set/At mismatch")
	}
	// Ghost cells addressable.
	set(p, 1, 1, 2, 7.0)
	if p.At(1, 1, 2) != 7.0 {
		t.Error("ghost cell not addressable")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := NewPatch(geom.NewBox2(0, 0, 2, 2), 0, 1)
	set(p, 0, 0, 0, 3.0)
	q := p.clone()
	set(q, 0, 0, 0, 4.0)
	if p.At(0, 0, 0) != 3.0 {
		t.Error("Clone shares storage")
	}
}

func TestCopyRegion(t *testing.T) {
	src := NewPatch(geom.NewBox2(0, 0, 4, 4), 0, 1)
	src.Box.Cells(func(q geom.IntVect) { set(src, 0, q[0], q[1], float64(q[0]*10+q[1])) })
	dst := NewPatch(geom.NewBox2(2, 2, 6, 6), 1, 1)
	dst.CopyRegion(src, geom.NewBox2(2, 2, 4, 4))
	if dst.At(0, 3, 3) != 33 || dst.At(0, 2, 2) != 22 {
		t.Errorf("CopyRegion values wrong: %f %f", dst.At(0, 3, 3), dst.At(0, 2, 2))
	}
	// Ghost region of dst also receivable.
	dst.CopyRegion(src, geom.NewBox2(1, 1, 2, 2))
	if dst.At(0, 1, 1) != 11 {
		t.Errorf("ghost CopyRegion = %f", dst.At(0, 1, 1))
	}
}

func TestExchangeGhosts(t *testing.T) {
	// Two side-by-side patches; ghosts of each must pick up the
	// neighbour's interior.
	a := NewPatch(geom.NewBox2(0, 0, 4, 4), 1, 1)
	b := NewPatch(geom.NewBox2(4, 0, 8, 4), 1, 1)
	a.Fill(0, 1.0)
	b.Fill(0, 2.0)
	ExchangeGhosts([]*Patch{a, b})
	if got := a.At(0, 4, 2); got != 2.0 {
		t.Errorf("a ghost at x=4 = %f, want 2", got)
	}
	if got := b.At(0, 3, 2); got != 1.0 {
		t.Errorf("b ghost at x=3 = %f, want 1", got)
	}
	// Corner ghost outside both stays untouched (still the Fill value).
	if got := a.At(0, -1, -1); got != 1.0 {
		t.Errorf("uncovered ghost changed: %f", got)
	}
}

func TestFillPhysicalPeriodic(t *testing.T) {
	dom := geom.NewBox2(0, 0, 8, 8)
	a := NewPatch(geom.NewBox2(0, 0, 8, 8), 1, 1)
	a.Box.Cells(func(q geom.IntVect) { set(a, 0, q[0], q[1], float64(q[0])) })
	FillPhysical(a, []*Patch{a}, dom, BCPeriodic)
	if got := a.At(0, -1, 3); got != 7 {
		t.Errorf("periodic ghost x=-1 = %f, want 7", got)
	}
	if got := a.At(0, 8, 3); got != 0 {
		t.Errorf("periodic ghost x=8 = %f, want 0", got)
	}
}

func TestFillPhysicalOutflow(t *testing.T) {
	dom := geom.NewBox2(0, 0, 4, 4)
	a := NewPatch(dom, 2, 1)
	a.Box.Cells(func(q geom.IntVect) { set(a, 0, q[0], q[1], float64(q[0]+10*q[1])) })
	FillPhysical(a, []*Patch{a}, dom, BCOutflow)
	if got := a.At(0, -2, 2); got != 0+10*2 {
		t.Errorf("outflow ghost = %f", got)
	}
	if got := a.At(0, 5, 5); got != 3+10*3 {
		t.Errorf("outflow corner ghost = %f", got)
	}
}

func TestFillPhysicalReflect(t *testing.T) {
	dom := geom.NewBox2(0, 0, 4, 4)
	a := NewPatch(dom, 1, 1)
	a.Box.Cells(func(q geom.IntVect) { set(a, 0, q[0], q[1], float64(q[0])) })
	FillPhysical(a, []*Patch{a}, dom, BCReflect)
	// Cell -1 mirrors cell 0; cell 4 mirrors cell 3.
	if got := a.At(0, -1, 2); got != 0 {
		t.Errorf("reflect ghost x=-1 = %f, want 0", got)
	}
	if got := a.At(0, 4, 2); got != 3 {
		t.Errorf("reflect ghost x=4 = %f, want 3", got)
	}
}

// TestProlongPiecewiseConstant: prolongation of a constant coarse field
// is that constant in every fine cell, exactly — the bilinear weights
// sum to one — including where the stencil is clamped at the edge of a
// coarse patch that has no halo.
func TestProlongPiecewiseConstant(t *testing.T) {
	coarse := NewPatch(geom.NewBox2(0, 0, 4, 4), 0, 1)
	coarse.Fill(0, 7)
	fine := NewPatch(geom.NewBox2(0, 0, 8, 8), 1, 1)
	fine.Fill(0, -1)
	ProlongLinear(fine, coarse, fine.Box, 2)
	fine.Box.Cells(func(q geom.IntVect) {
		if got := fine.At(0, q[0], q[1]); got != 7 {
			t.Fatalf("fine cell %v = %v, want 7", q, got)
		}
	})
	if got := fine.At(0, -1, 3); got != -1 {
		t.Errorf("ghost outside the region = %v, want it untouched", got)
	}
}

func TestRestrictAverages(t *testing.T) {
	fine := NewPatch(geom.NewBox2(2, 2, 6, 6), 0, 1)
	fine.Box.Cells(func(q geom.IntVect) { set(fine, 0, q[0], q[1], 4.0) })
	coarse := NewPatch(geom.NewBox2(0, 0, 4, 4), 0, 1)
	coarse.Fill(0, -1)
	Restrict(coarse, fine, 2)
	// Coarse cells (1..2, 1..2) are fully covered: average of 4s = 4.
	if got := coarse.At(0, 1, 1); got != 4.0 {
		t.Errorf("Restrict covered cell = %f, want 4", got)
	}
	// Coarse cell (0,0) not covered: untouched.
	if got := coarse.At(0, 0, 0); got != -1 {
		t.Errorf("Restrict uncovered cell = %f, want -1", got)
	}
}

func TestRestrictConservation(t *testing.T) {
	// Sum over a fully covered coarse region must equal fine sum / r^2.
	fine := NewPatch(geom.NewBox2(0, 0, 8, 8), 0, 1)
	v := 0.0
	fine.Box.Cells(func(q geom.IntVect) { v += 1; set(fine, 0, q[0], q[1], v) })
	coarse := NewPatch(geom.NewBox2(0, 0, 4, 4), 0, 1)
	Restrict(coarse, fine, 2)
	fineSum := fine.SumInterior(0)
	coarseSum := coarse.SumInterior(0)
	if diff := fineSum/4 - coarseSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("restriction not conservative: fine/4=%f coarse=%f", fineSum/4, coarseSum)
	}
}

func TestProlongRestrictRoundTrip(t *testing.T) {
	// Bilinear prolongation reproduces a linear field at the fine cell
	// centres, so averaging it back must return the coarse data exactly
	// (quarter weights on small integers: no rounding). The coarse halo
	// carries the field too, so no stencil is clamped.
	coarse := NewPatch(geom.NewBox2(0, 0, 4, 4), 1, 1)
	coarse.GrownBox().Cells(func(q geom.IntVect) { set(coarse, 0, q[0], q[1], float64(q[0]-2*q[1])) })
	fine := NewPatch(geom.NewBox2(0, 0, 8, 8), 0, 1)
	ProlongLinear(fine, coarse, fine.Box, 2)
	got := NewPatch(geom.NewBox2(0, 0, 4, 4), 0, 1)
	Restrict(got, fine, 2)
	coarse.Box.Cells(func(q geom.IntVect) {
		if got.At(0, q[0], q[1]) != coarse.At(0, q[0], q[1]) {
			t.Fatalf("round trip differs at %v", q)
		}
	})
}

func TestMaxAbs(t *testing.T) {
	p := NewPatch(geom.NewBox2(0, 0, 3, 3), 1, 1)
	set(p, 0, 1, 1, -5)
	set(p, 0, 2, 2, 3)
	set(p, 0, -1, -1, 100) // ghost: must be ignored
	if got := p.MaxAbs(0); got != 5 {
		t.Errorf("MaxAbs = %f, want 5", got)
	}
}

// prolongLinearReference is ProlongLinear written cell by cell: no
// precomputed x-stencil, no row slices, every cell clamps its own
// stencil and forms its own weights.
func prolongLinearReference(fine *Patch, coarse *Patch, region geom.Box, ratio int) {
	region = region.Intersect(fine.GrownBox())
	if region.Empty() {
		return
	}
	cg := coarse.GrownBox()
	r := float64(ratio)
	for y := region.Lo[1]; y < region.Hi[1]; y++ {
		yc := (float64(y) + 0.5) / r
		j0 := int(math.Floor(yc - 0.5))
		ty := yc - (float64(j0) + 0.5)
		j1 := j0 + 1
		if j0 < cg.Lo[1] {
			j0 = cg.Lo[1]
		}
		if j1 > cg.Hi[1]-1 {
			j1 = cg.Hi[1] - 1
		}
		if j0 > j1 || j0 < cg.Lo[1] {
			continue // no coverage in y
		}
		for x := region.Lo[0]; x < region.Hi[0]; x++ {
			xc := (float64(x) + 0.5) / r
			i0 := int(math.Floor(xc - 0.5))
			tx := xc - (float64(i0) + 0.5)
			i1 := i0 + 1
			if i0 < cg.Lo[0] {
				i0 = cg.Lo[0]
			}
			if i1 > cg.Hi[0]-1 {
				i1 = cg.Hi[0] - 1
			}
			if i0 > i1 || i0 < cg.Lo[0] {
				continue // no coverage in x
			}
			for c := 0; c < fine.NComp; c++ {
				v00 := coarse.At(c, i0, j0)
				v10 := coarse.At(c, i1, j0)
				v01 := coarse.At(c, i0, j1)
				v11 := coarse.At(c, i1, j1)
				set(fine, c, x, y, (1-tx)*(1-ty)*v00+tx*(1-ty)*v10+(1-tx)*ty*v01+tx*ty*v11)
			}
		}
	}
}

// TestProlongLinearMatchesReference compares the row-streamed
// ProlongLinear bit for bit with the cell-by-cell one over random
// fine/coarse pairs. The coarse patch is placed anywhere from exactly
// under the fine patch to off to one side, so regions are fully covered,
// covered through a clamped stencil, partly uncovered, and not covered
// at all; regions wider than the 64-cell stack buffers take the heap
// path.
func TestProlongLinearMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var written, untouched int
	for trial := 0; trial < 400; trial++ {
		ratio := 2 + r.Intn(3)
		ncomp := 1 + r.Intn(4)
		w, h := 1+r.Intn(24), 1+r.Intn(24)
		if trial%10 == 0 {
			w = 65 + r.Intn(40)
		}
		x0, y0 := (r.Intn(40)-20)*ratio, (r.Intn(40)-20)*ratio
		got := NewPatch(geom.NewBox2(x0, y0, x0+w, y0+h), 1+r.Intn(2), ncomp)
		cb := got.Box.Coarsen(ratio)
		for d := 0; d < 2; d++ {
			shift := r.Intn(7) - 3
			cb.Lo[d] += shift
			cb.Hi[d] += shift
		}
		cb.Hi[0] += r.Intn(3) - 1
		cb.Hi[1] += r.Intn(3) - 1
		if cb.Empty() {
			continue
		}
		coarse := NewPatch(cb, r.Intn(2), ncomp)
		for i := range coarse.data {
			coarse.data[i] = r.NormFloat64()
		}
		for i := range got.data {
			got.data[i] = r.NormFloat64()
		}
		before, want := got.clone(), got.clone()
		region := got.GrownBox()
		if r.Intn(2) == 0 { // a halo strip, the shape fillGhosts prolongs
			region.Hi[1] = region.Lo[1] + 1
		}
		ProlongLinear(got, coarse, region, ratio)
		prolongLinearReference(want, coarse, region, ratio)
		for i := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
				t.Fatalf("trial %d: fine %v coarse %v region %v ratio %d: slab[%d] = %v, reference %v",
					trial, got.Box, coarse.Box, region, ratio, i, got.data[i], want.data[i])
			}
			if want.data[i] != before.data[i] {
				written++
			} else {
				untouched++
			}
		}
	}
	if written == 0 || untouched == 0 {
		t.Errorf("one side of the coverage split never occurred: %d cells written, %d left alone", written, untouched)
	}
}
