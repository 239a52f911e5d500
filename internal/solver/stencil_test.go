package solver

import (
	"math"
	"math/rand"
	"testing"

	"samr/internal/field"
	"samr/internal/geom"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// clonePatch returns a deep copy of p, ghosts included.
func clonePatch(p *field.Patch) *field.Patch {
	q := field.NewPatch(p.Box, p.Ghost, p.NComp)
	q.CopyRegion(p, p.GrownBox())
	return q
}

// The three reference steps below are the bodies Transport, ScalarWave
// and BuckleyLeverett shipped before they stepped in place: clone the
// patch, read every stencil from the clone, write the live patch's
// interior. They are the oracles the in-place Steps must match bit for
// bit.

func transportStepReference(k *Transport, p *field.Patch, t, dt float64, g Geometry) {
	old := clonePatch(p)
	b := p.Box
	off := -p.GrownBox().Lo[0]
	for j := b.Lo[1]; j < b.Hi[1]; j++ {
		_, y := g.Center(0, j)
		ax := k.velocityX(y)
		rm := old.Row(0, j-1)
		rc := old.Row(0, j)
		rp := old.Row(0, j+1)
		dst := p.Row(0, j)
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			o := i + off
			x, _ := g.Center(i, 0)
			ay := k.velocityY(x)
			var dudx, dudy float64
			if ax > 0 {
				dudx = (rc[o] - rc[o-1]) / g.Dx
			} else {
				dudx = (rc[o+1] - rc[o]) / g.Dx
			}
			if ay > 0 {
				dudy = (rc[o] - rm[o]) / g.Dx
			} else {
				dudy = (rp[o] - rc[o]) / g.Dx
			}
			dst[o] = rc[o] - dt*(ax*dudx+ay*dudy)
		}
	}
}

func scalarWaveStepReference(k *ScalarWave, p *field.Patch, t, dt float64, g Geometry) {
	old := clonePatch(p)
	c2 := k.C * k.C
	inv := 1.0 / (g.Dx * g.Dx)
	omega := 2 * math.Pi / k.SourcePeriod
	damp := 1 - k.Damping*dt
	b := p.Box
	off := -p.GrownBox().Lo[0]
	for j := b.Lo[1]; j < b.Hi[1]; j++ {
		_, y := g.Center(0, j)
		dy2 := (y - 0.5) * (y - 0.5)
		um := old.Row(0, j-1)
		uc := old.Row(0, j)
		up := old.Row(0, j+1)
		vc := old.Row(1, j)
		dstU := p.Row(0, j)
		dstV := p.Row(1, j)
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			o := i + off
			x, _ := g.Center(i, 0)
			lap := (uc[o+1] + uc[o-1] + up[o] + um[o] - 4*uc[o]) * inv
			sp := sponge(x, y) * damp
			v := (vc[o] + dt*c2*lap) * sp
			u := (uc[o] + dt*v) * sp
			dx2 := (x - 0.5) * (x - 0.5)
			r2 := dx2 + dy2
			if r2 < 0.004 {
				prof := math.Exp(-r2 / (2 * 0.03 * 0.03))
				u = k.SourceAmp * math.Sin(omega*(t+dt)) * prof
				v = k.SourceAmp * omega * math.Cos(omega*(t+dt)) * prof
			}
			dstV[o] = v
			dstU[o] = u
		}
	}
}

func buckleyLeverettStepReference(k *BuckleyLeverett, p *field.Patch, t, dt float64, g Geometry) {
	old := clonePatch(p)
	rate := k.rateAt(t)
	lam := dt / g.Dx
	b := p.Box
	off := -p.GrownBox().Lo[0]
	for j := b.Lo[1]; j < b.Hi[1]; j++ {
		_, y := g.Center(0, j)
		y2 := y * y
		rm := old.Row(0, j-1)
		rc := old.Row(0, j)
		rp := old.Row(0, j+1)
		dst := p.Row(0, j)
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			o := i + off
			x, _ := g.Center(i, 0)
			ux, uy := k.velocityRate(x, y, rate)
			fc := k.frac(rc[o])
			var dfx, dfy float64
			if ux > 0 {
				dfx = fc - k.frac(rc[o-1])
			} else {
				dfx = k.frac(rc[o+1]) - fc
			}
			if uy > 0 {
				dfy = fc - k.frac(rm[o])
			} else {
				dfy = k.frac(rp[o]) - fc
			}
			s := rc[o] - lam*(ux*dfx+uy*dfy)
			if x*x+y2 < 0.005 {
				s = 1.0
			}
			if s < 0 {
				s = 0
			}
			if s > 1 {
				s = 1
			}
			dst[o] = s
		}
	}
}

// stencilCase pairs a stencil kernel with its reference step.
type stencilCase struct {
	k   Kernel
	ref func(p *field.Patch, t, dt float64, g Geometry)
}

func stencilCases() []stencilCase {
	tp, sc, bl := NewTransport(), NewScalarWave(), NewBuckleyLeverett()
	return []stencilCase{
		{tp, func(p *field.Patch, t, dt float64, g Geometry) { transportStepReference(tp, p, t, dt, g) }},
		{sc, func(p *field.Patch, t, dt float64, g Geometry) { scalarWaveStepReference(sc, p, t, dt, g) }},
		{bl, func(p *field.Patch, t, dt float64, g Geometry) { buckleyLeverettStepReference(bl, p, t, dt, g) }},
	}
}

// FuzzStencilStep holds the in-place Steps of Transport, ScalarWave and
// BuckleyLeverett to their clone-based references, bit for bit over the
// whole grown box: on patches from 1x1 up, placed anywhere on a random
// level of the unit square (so the wave source, the injection well and
// both velocity signs are reached), with random interior and ghost
// values and random finite t and dt. A plain go test replays the seeds.
func FuzzStencilStep(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), 0.0, 0.001)
	f.Add(int64(2), uint8(1), uint8(17), 0.3, 0.01)
	f.Add(int64(3), uint8(17), uint8(1), 1.7, 0.02)
	f.Add(int64(4), uint8(2), uint8(2), 0.05, 0.5)
	f.Add(int64(5), uint8(40), uint8(40), 0.11, 0.004)
	f.Add(int64(6), uint8(33), uint8(7), -2.5, 3.0)
	f.Fuzz(func(t *testing.T, seed int64, w, h uint8, tm, dt float64) {
		if math.IsNaN(tm) || math.IsInf(tm, 0) || math.IsNaN(dt) || math.IsInf(dt, 0) {
			t.Skip("the driver steps finite times only")
		}
		r := rand.New(rand.NewSource(seed))
		wd, ht := 1+int(w)%48, 1+int(h)%48
		n := 8 + r.Intn(120)
		g := Geometry{Dx: 1.0 / float64(n)}
		x0, y0 := r.Intn(n+wd)-wd, r.Intn(n+ht)-ht
		box := geom.NewBox2(x0, y0, x0+wd, y0+ht)
		for _, c := range stencilCases() {
			got := field.NewPatch(box, c.k.Ghost(), c.k.NComp())
			gb := got.GrownBox()
			for comp := 0; comp < c.k.NComp(); comp++ {
				for y := gb.Lo[1]; y < gb.Hi[1]; y++ {
					row := got.Row(comp, y)
					for i := range row {
						row[i] = 1.4*r.Float64() - 0.2
						if r.Intn(8) == 0 {
							row[i] = 10 * r.NormFloat64()
						}
					}
				}
			}
			want := clonePatch(got)
			c.k.Step(got, tm, dt, g)
			c.ref(want, tm, dt, g)
			for comp := 0; comp < c.k.NComp(); comp++ {
				for y := gb.Lo[1]; y < gb.Hi[1]; y++ {
					a, b := got.Row(comp, y), want.Row(comp, y)
					for i := range a {
						if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
							t.Fatalf("%s on %v (dx 1/%d, t %v, dt %v) comp %d cell (%d,%d): Step %v, reference %v",
								c.k.Name(), box, n, tm, dt, comp, gb.Lo[0]+i, y, a[i], b[i])
						}
					}
				}
			}
		}
	})
}

// TestWarmStepAllocatesNothing holds every kernel's Step to zero
// allocations once its pooled window exists.
func TestWarmStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	for _, k := range []Kernel{NewTransport(), NewScalarWave(), NewBuckleyLeverett(), NewEuler()} {
		p := runSteps(k, 0, 24)
		field.FillPhysical(p, []*field.Patch{p}, p.Box, k.BC())
		g := Geometry{Dx: 1.0 / 24}
		dt := 0.4 * g.Dx / k.MaxSpeed()
		if n := testing.AllocsPerRun(20, func() { k.Step(p, 0, dt, g) }); n != 0 {
			t.Errorf("%s: a warm Step allocates %v times", k.Name(), n)
		}
	}
}
