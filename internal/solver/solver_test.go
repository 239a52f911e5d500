package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"samr/internal/field"
	"samr/internal/geom"
)

// runSteps advances kernel k on a single full-domain patch for n steps,
// handling its own ghost fills, and returns the patch.
func runSteps(k Kernel, n, size int) *field.Patch {
	g := Geometry{Dx: 1.0 / float64(size)}
	dom := geom.NewBox2(0, 0, size, size)
	p := field.NewPatch(dom, k.Ghost(), k.NComp())
	k.Init(p, g)
	dt := 0.4 * g.Dx / k.MaxSpeed()
	t := 0.0
	for s := 0; s < n; s++ {
		field.FillPhysical(p, []*field.Patch{p}, dom, k.BC())
		k.Step(p, t, dt, g)
		t += dt
	}
	return p
}

func TestTransportPreservesBounds(t *testing.T) {
	k := NewTransport()
	p := runSteps(k, 50, 32)
	p.Box.Cells(func(q geom.IntVect) {
		v := p.At(0, q[0], q[1])
		if v < -1e-9 || v > 1.0+1e-9 {
			t.Fatalf("transport out of [0,1] at %v: %f", q, v)
		}
	})
}

func TestTransportPulseMoves(t *testing.T) {
	k := NewTransport()
	g := Geometry{Dx: 1.0 / 32}
	dom := geom.NewBox2(0, 0, 32, 32)
	p := field.NewPatch(dom, 1, 1)
	k.Init(p, g)
	cx0, cy0 := centroid(p)
	dt := 0.4 * g.Dx / k.MaxSpeed()
	for s := 0; s < 40; s++ {
		field.FillPhysical(p, []*field.Patch{p}, dom, k.BC())
		k.Step(p, 0, dt, g)
	}
	cx1, cy1 := centroid(p)
	moved := math.Hypot(cx1-cx0, cy1-cy0)
	if moved < 0.5 {
		t.Errorf("pulse centroid moved only %f cells", moved)
	}
}

func centroid(p *field.Patch) (cx, cy float64) {
	var m float64
	p.Box.Cells(func(q geom.IntVect) {
		v := p.At(0, q[0], q[1])
		m += v
		cx += v * float64(q[0])
		cy += v * float64(q[1])
	})
	if m > 0 {
		cx /= m
		cy /= m
	}
	return cx, cy
}

func TestTransportTagsMovingFront(t *testing.T) {
	k := NewTransport()
	p := runSteps(k, 5, 32)
	n := 0
	k.Tag(p, Geometry{Dx: 1.0 / 32}, func(i, j int) { n++ })
	if n == 0 {
		t.Error("transport pulse produced no tags")
	}
	if n > 32*32/2 {
		t.Errorf("transport tagged %d cells: threshold too low", n)
	}
}

func TestScalarWaveStable(t *testing.T) {
	k := NewScalarWave()
	p := runSteps(k, 100, 32)
	if m := p.MaxAbs(0); m > 10 {
		t.Errorf("wave amplitude blew up: %f", m)
	}
	if m := p.MaxAbs(0); m < 1e-6 {
		t.Errorf("wave died completely: %f", m)
	}
}

func TestScalarWaveRingExpands(t *testing.T) {
	// The driven, damped wave field must keep producing tags forever
	// (the source re-excites it) and the tagged area must oscillate
	// with the source — the refinement dynamics the paper reports.
	k := NewScalarWave()
	g := Geometry{Dx: 1.0 / 48}
	dom := geom.NewBox2(0, 0, 48, 48)
	p := field.NewPatch(dom, 1, 2)
	k.Init(p, g)
	dt := 0.4 * g.Dx / k.MaxSpeed()
	tm := 0.0
	// Skip the initial transient, then record tag counts over two
	// source periods.
	stepsPerPeriod := int(k.SourcePeriod / dt)
	var counts []int
	for s := 0; s < 4*stepsPerPeriod; s++ {
		field.FillPhysical(p, []*field.Patch{p}, dom, k.BC())
		k.Step(p, tm, dt, g)
		tm += dt
		if s >= 2*stepsPerPeriod {
			n := 0
			k.Tag(p, g, func(i, j int) { n++ })
			counts = append(counts, n)
		}
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max == 0 {
		t.Fatal("driven wave stopped producing tags")
	}
	if max == min {
		t.Errorf("tag count constant at %d; expected oscillation", max)
	}
}

func meanTagRadius(k Kernel, p *field.Patch, g Geometry) float64 {
	var sum float64
	n := 0
	k.Tag(p, g, func(i, j int) {
		x, y := g.Center(i, j)
		sum += math.Hypot(x-0.5, y-0.5)
		n++
	})
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestBuckleyLeverettSaturationBounds(t *testing.T) {
	k := NewBuckleyLeverett()
	p := runSteps(k, 80, 32)
	p.Box.Cells(func(q geom.IntVect) {
		s := p.At(0, q[0], q[1])
		if s < 0 || s > 1 {
			t.Fatalf("saturation out of bounds at %v: %f", q, s)
		}
	})
}

func TestBuckleyLeverettFrontAdvances(t *testing.T) {
	k := NewBuckleyLeverett()
	p := runSteps(k, 120, 32)
	// Water must have spread beyond the initial slug radius.
	var maxR float64
	g := Geometry{Dx: 1.0 / 32}
	p.Box.Cells(func(q geom.IntVect) {
		if p.At(0, q[0], q[1]) > 0.3 {
			x, y := g.Center(q[0], q[1])
			if r := math.Hypot(x, y); r > maxR {
				maxR = r
			}
		}
	})
	if maxR < 0.2 {
		t.Errorf("BL front only reached r=%f", maxR)
	}
}

func TestBuckleyLeverettFractionalFlow(t *testing.T) {
	k := NewBuckleyLeverett()
	if k.frac(0) != 0 || k.frac(1) != 1 {
		t.Error("fractional flow endpoints wrong")
	}
	if k.frac(-0.5) != 0 || k.frac(1.5) != 1 {
		t.Error("fractional flow must clamp outside [0,1]")
	}
	// Monotone increasing.
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.05 {
		f := k.frac(s)
		if f < prev {
			t.Fatalf("fractional flow not monotone at S=%f", s)
		}
		prev = f
	}
}

func TestEulerShockTube(t *testing.T) {
	k := NewEuler()
	p := runSteps(k, 60, 48)
	// Density must stay positive and finite everywhere.
	p.Box.Cells(func(q geom.IntVect) {
		rho := p.At(0, q[0], q[1])
		if rho <= 0 || math.IsNaN(rho) || math.IsInf(rho, 0) {
			t.Fatalf("bad density at %v: %f", q, rho)
		}
		_, _, _, pr := k.primitive(rho, p.At(1, q[0], q[1]), p.At(2, q[0], q[1]), p.At(3, q[0], q[1]))
		if pr <= 0 || math.IsNaN(pr) {
			t.Fatalf("bad pressure at %v: %f", q, pr)
		}
	})
}

func TestEulerShockMovesRight(t *testing.T) {
	k := NewEuler()
	g := Geometry{Dx: 1.0 / 48}
	dom := geom.NewBox2(0, 0, 48, 48)
	p := field.NewPatch(dom, 1, 4)
	k.Init(p, g)
	// Initial x-momentum is concentrated left of the shock.
	mx0 := momentumCentroidX(p)
	dt := 0.4 * g.Dx / k.MaxSpeed()
	for s := 0; s < 60; s++ {
		field.FillPhysical(p, []*field.Patch{p}, dom, k.BC())
		k.Step(p, 0, dt, g)
	}
	mx1 := momentumCentroidX(p)
	if mx1 <= mx0 {
		t.Errorf("shock momentum centroid did not advance: %f -> %f", mx0, mx1)
	}
}

func momentumCentroidX(p *field.Patch) float64 {
	var m, mx float64
	p.Box.Cells(func(q geom.IntVect) {
		v := math.Abs(p.At(1, q[0], q[1]))
		m += v
		mx += v * float64(q[0])
	})
	if m == 0 {
		return 0
	}
	return mx / m
}

func TestEulerRankineHugoniotInit(t *testing.T) {
	// The post-shock density from the initializer must satisfy the
	// normal-shock relation for the configured pressure ratio.
	k := NewEuler()
	g := Geometry{Dx: 1.0 / 32}
	p := field.NewPatch(geom.NewBox2(0, 0, 32, 32), 1, 4)
	k.Init(p, g)
	rho := p.At(0, 1, 16)
	gam, pr := k.Gamma, k.ShockPressureRatio
	want := ((gam+1)*pr + (gam - 1)) / ((gam-1)*pr + (gam + 1))
	if math.Abs(rho-want) > 1e-12 {
		t.Errorf("post-shock density = %f, want %f", rho, want)
	}
	// Heavy fluid on the right.
	if p.At(0, 30, 16) != 3 {
		t.Errorf("heavy-fluid density = %f, want 3", p.At(0, 30, 16))
	}
}

func TestEulerConservedPrimitiveRoundTrip(t *testing.T) {
	k := NewEuler()
	st := k.conserved(1.2, 0.3, -0.4, 2.5)
	r, u, v, p := k.primitive(st[0], st[1], st[2], st[3])
	if math.Abs(r-1.2) > 1e-12 || math.Abs(u-0.3) > 1e-12 ||
		math.Abs(v+0.4) > 1e-12 || math.Abs(p-2.5) > 1e-12 {
		t.Errorf("round trip = (%f,%f,%f,%f)", r, u, v, p)
	}
}

func TestKernelMetadata(t *testing.T) {
	kernels := []Kernel{NewTransport(), NewScalarWave(), NewBuckleyLeverett(), NewEuler()}
	names := map[string]bool{}
	for _, k := range kernels {
		if k.NComp() < 1 || k.Ghost() < 1 || k.MaxSpeed() <= 0 {
			t.Errorf("%s: bad metadata", k.Name())
		}
		if names[k.Name()] {
			t.Errorf("duplicate kernel name %s", k.Name())
		}
		names[k.Name()] = true
	}
	for _, want := range []string{"TP2D", "SC2D", "BL2D", "RM2D"} {
		if !names[want] {
			t.Errorf("missing kernel %s", want)
		}
	}
}

func TestGeometryCenter(t *testing.T) {
	g := Geometry{Dx: 0.25}
	x, y := g.Center(0, 3)
	if x != 0.125 || y != 0.875 {
		t.Errorf("Center = (%f,%f)", x, y)
	}
}

// eulerStepReference is the per-cell Euler step this package shipped
// before the compute-once kernel: clone the patch, and for every cell
// evaluate all four of its face fluxes from scratch, the y-direction
// ones on states with the momenta swapped. It is the oracle Step must
// match bit for bit.
func eulerStepReference(k *Euler, p *field.Patch, dt float64, g Geometry) {
	primitive := func(rho, mu, mv, e float64) (r, u, v, pr float64) {
		if rho < 1e-10 {
			rho = 1e-10
		}
		u, v = mu/rho, mv/rho
		pr = (k.Gamma - 1) * (e - 0.5*rho*(u*u+v*v))
		if pr < 1e-10 {
			pr = 1e-10
		}
		return rho, u, v, pr
	}
	flux := func(rho, mu, mv, e float64) [4]float64 {
		_, u, _, pr := primitive(rho, mu, mv, e)
		return [4]float64{
			mu,
			mu*u + pr,
			mv * u,
			(e + pr) * u,
		}
	}
	rusanov := func(l, r [4]float64) [4]float64 {
		lr, lu, _, lp := primitive(l[0], l[1], l[2], l[3])
		rr, ru, _, rp := primitive(r[0], r[1], r[2], r[3])
		cl := math.Sqrt(k.Gamma * lp / lr)
		cr := math.Sqrt(k.Gamma * rp / rr)
		smax := math.Max(math.Abs(lu)+cl, math.Abs(ru)+cr)
		fl := flux(l[0], l[1], l[2], l[3])
		fr := flux(r[0], r[1], r[2], r[3])
		var out [4]float64
		for c := 0; c < 4; c++ {
			out[c] = 0.5*(fl[c]+fr[c]) - 0.5*smax*(r[c]-l[c])
		}
		return out
	}
	gather := func(rows *[4][]float64, o int) [4]float64 {
		return [4]float64{rows[0][o], rows[1][o], rows[2][o], rows[3][o]}
	}
	swapMom := func(s [4]float64) [4]float64 { return [4]float64{s[0], s[2], s[1], s[3]} }

	old := p.Clone()
	defer old.Release()
	lam := dt / g.Dx
	b := p.Box
	off := -p.GrownBox().Lo[0]
	var rm, rc, rp, dst [4][]float64
	for j := b.Lo[1]; j < b.Hi[1]; j++ {
		for c := 0; c < 4; c++ {
			rm[c] = old.Row(c, j-1)
			rc[c] = old.Row(c, j)
			rp[c] = old.Row(c, j+1)
			dst[c] = p.Row(c, j)
		}
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			o := i + off
			c0 := gather(&rc, o)
			fxm := rusanov(gather(&rc, o-1), c0)
			fxp := rusanov(c0, gather(&rc, o+1))
			fym := rusanov(swapMom(gather(&rm, o)), swapMom(c0))
			fyp := rusanov(swapMom(c0), swapMom(gather(&rp, o)))
			fym, fyp = swapMom(fym), swapMom(fyp)
			for c := 0; c < 4; c++ {
				dst[c][o] = c0[c] - lam*(fxp[c]-fxm[c]) - lam*(fyp[c]-fym[c])
			}
			if dst[0][o] < 1e-8 {
				dst[0][o] = 1e-8
			}
		}
	}
}

// contractsMulAdd reports whether this build fuses x*y+z into one
// rounding (the compiler may on arm64, ppc64le, s390x, riscv64 and
// GOAMD64=v3). Step's y-fluxes equal the reference's swapped-frame ones
// only because u*u+v*v and v*v+u*u round alike, which fusing breaks.
func contractsMulAdd() bool {
	x := 1 + 1.0/(1<<27)
	y := -(1 + 1.0/(1<<26))
	return x*x+y != 0
}

// randomEulerPatch fills a w x h patch (halo included) with a random
// state: smooth around a random background, or rough with near-vacuum
// densities and energies below the kinetic energy, so that both floors
// of primitive and the density floor of Step are exercised.
func randomEulerPatch(r *rand.Rand, w, h int, rough bool) *field.Patch {
	x0, y0 := r.Intn(200)-100, r.Intn(200)-100
	p := field.NewPatch(geom.NewBox2(x0, y0, x0+w, y0+h), 1, 4)
	k := NewEuler()
	rho0, u0, v0, p0 := 0.5+2*r.Float64(), 2*r.Float64()-1, 2*r.Float64()-1, 0.5+2*r.Float64()
	kx, ky := 0.7*r.Float64(), 0.7*r.Float64()
	gb := p.GrownBox()
	for y := gb.Lo[1]; y < gb.Hi[1]; y++ {
		for x := gb.Lo[0]; x < gb.Hi[0]; x++ {
			s := math.Sin(kx*float64(x) + ky*float64(y))
			st := k.conserved(rho0*(1+0.3*s), u0+0.2*s, v0-0.2*s, p0*(1+0.3*s))
			if rough {
				st = [4]float64{3 * r.Float64(), 4*r.Float64() - 2, 4*r.Float64() - 2, 6*r.Float64() - 1}
				switch r.Intn(8) {
				case 0:
					st[0] = 1e-11 * r.Float64() // below primitive's density floor
				case 1:
					st[3] = -r.Float64() // negative pressure
				}
			}
			for c := 0; c < 4; c++ {
				p.Row(c, y)[x-gb.Lo[0]] = st[c]
			}
		}
	}
	return p
}

func TestEulerStepMatchesReference(t *testing.T) {
	if contractsMulAdd() {
		t.Skip("this build contracts x*y+z; the swapped-frame reference is not bit-comparable")
	}
	k := NewEuler()
	r := rand.New(rand.NewSource(18))
	sizes := [][2]int{{1, 1}, {1, 17}, {17, 1}, {2, 2}, {40, 40}}
	for len(sizes) < 150 {
		sizes = append(sizes, [2]int{1 + r.Intn(40), 1 + r.Intn(40)})
	}
	var floored, vacuum, negP int
	for n, wh := range sizes {
		got := randomEulerPatch(r, wh[0], wh[1], n%2 == 1)
		before, want := got.Clone(), got.Clone()
		g := Geometry{Dx: 1.0 / float64(8+r.Intn(120))}
		// Up to five times the stable step, so that rough states
		// drive some densities below the 1e-8 floor.
		dt := 5 * r.Float64() * g.Dx / k.MaxSpeed()
		k.Step(got, 0, dt, g)
		eulerStepReference(k, want, dt, g)
		gb := got.GrownBox()
		for y := gb.Lo[1]; y < gb.Hi[1]; y++ {
			for x := gb.Lo[0]; x < gb.Hi[0]; x++ {
				ref := want
				if !got.Box.Contains(geom.IV2(x, y)) {
					ref = before // a step must not write the halo
				} else {
					if got.At(0, x, y) == 1e-8 {
						floored++
					}
					if before.At(0, x, y) < 1e-10 {
						vacuum++
					}
					if _, _, _, pr := k.primitive(before.At(0, x, y), before.At(1, x, y), before.At(2, x, y), before.At(3, x, y)); pr == 1e-10 {
						negP++
					}
				}
				for c := 0; c < 4; c++ {
					if a, b := got.At(c, x, y), ref.At(c, x, y); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("patch %d (%dx%d at %v) comp %d cell (%d,%d): Step %v (%#x), reference %v (%#x)",
							n, wh[0], wh[1], got.Box.Lo, c, x, y, a, math.Float64bits(a), b, math.Float64bits(b))
					}
				}
			}
		}
	}
	if floored == 0 || vacuum == 0 || negP == 0 {
		t.Errorf("floors not exercised: density floor fired %d times, rho<1e-10 in %d cells, pressure floor in %d", floored, vacuum, negP)
	}
}

// BenchmarkEulerStep times one RM2D kernel step on a large and a small
// patch; the scratch rows are per call, so allocations are reported.
func BenchmarkEulerStep(b *testing.B) {
	for _, size := range []int{32, 8} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			k := NewEuler()
			p := runSteps(k, 0, size)
			field.FillPhysical(p, []*field.Patch{p}, p.Box, k.BC())
			g := Geometry{Dx: 1.0 / float64(size)}
			dt := 0.4 * g.Dx / k.MaxSpeed()
			b.ReportAllocs()
			for b.Loop() {
				k.Step(p, 0, dt, g)
			}
		})
	}
}
