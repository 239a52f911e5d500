// Package solver implements the numerical kernels of the paper's four
// SAMR evaluation applications:
//
//   - TP2D: 2-D linear transport (the GrACE TportAMR benchmark kernel)
//   - SC2D: 2-D scalar wave equation (the hyperbolic part of the Cactus
//     Scalarwave numerical-relativity kernel)
//   - BL2D: 2-D Buckley–Leverett two-phase flow (the IPARS oil–water
//     kernel)
//   - RM2D: 2-D compressible Euler with a shocked, perturbed interface
//     (the VTF Richtmyer–Meshkov kernel)
//
// Each kernel is a first-order explicit finite-volume / finite-difference
// update on one patch with a ghost halo. Numerical sophistication is
// deliberately modest: the kernels exist to drive realistic adaptive
// refinement dynamics (moving fronts, oscillating rings, fingering
// shocks), which is all the partitioning model consumes.
//
// # Execution model
//
// The kernels are written over field.Patch row slices (Row/RowSpan):
// every inner loop walks contiguous storage with the index math and
// bounds checks hoisted out of the cell loop, instead of paying At/Set
// offset recomputation per stencil read. Step reads the old time level
// and writes only the interior of the live patch; Init and the halo
// fills are the only writers of ghost cells. Transport, ScalarWave and
// BuckleyLeverett get the old level by cloning the patch into a
// free-listed scratch slab. Euler, whose per-cell work (primitives,
// sound speed, physical fluxes) is worth keeping, instead derives each
// row once into a two-row window allocated per call, updates the patch
// in place behind it, and computes every face flux once (see
// Euler.Step). A kernel invocation touches exactly one patch, so the
// AMR driver may run Step/Init/Tag on distinct patches concurrently —
// results are bit-identical to a sequential sweep.
package solver

import (
	"math"

	"samr/internal/field"
)

// Geometry locates a patch in physical space: the physical domain is the
// unit square and cell (i, j) on a level with spacing Dx has its centre
// at ((i+0.5)*Dx, (j+0.5)*Dx).
type Geometry struct {
	// Dx is the level's cell spacing.
	Dx float64
}

// Center returns the physical coordinates of cell (i, j)'s centre.
func (g Geometry) Center(i, j int) (x, y float64) {
	return (float64(i) + 0.5) * g.Dx, (float64(j) + 0.5) * g.Dx
}

// Kernel is one application's numerics on a single patch.
type Kernel interface {
	// Name is the application identifier used in traces ("TP2D", ...).
	Name() string
	// NComp is the number of solution components.
	NComp() int
	// Ghost is the halo width the Step stencil requires.
	Ghost() int
	// BC is the physical boundary treatment.
	BC() field.BC
	// MaxSpeed bounds the fastest characteristic; the driver sets
	// dt = CFL * dx / MaxSpeed.
	MaxSpeed() float64
	// Init writes the initial condition on the patch interior and halo.
	Init(p *field.Patch, g Geometry)
	// Step advances the patch interior by dt, reading the halo. t is
	// the physical time at the start of the step (kernels with
	// time-dependent forcing use it).
	Step(p *field.Patch, t, dt float64, g Geometry)
	// Tag invokes tag for every interior cell needing refinement.
	Tag(p *field.Patch, g Geometry, tag func(i, j int))
}

// tagAboveGrad invokes tag for every interior cell whose
// centred-difference gradient magnitude of component c — the undivided
// difference, the standard SAMR refinement indicator — exceeds
// threshold. All four kernels share this indicator.
func tagAboveGrad(p *field.Patch, c int, threshold float64, tag func(i, j int)) {
	b := p.Box
	off := -p.GrownBox().Lo[0]
	for j := b.Lo[1]; j < b.Hi[1]; j++ {
		rm := p.Row(c, j-1)
		rc := p.Row(c, j)
		rp := p.Row(c, j+1)
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			o := i + off
			dx := (rc[o+1] - rc[o-1]) / 2
			dy := (rp[o] - rm[o]) / 2
			if math.Sqrt(dx*dx+dy*dy) > threshold {
				tag(i, j)
			}
		}
	}
}

// Transport is the TP2D kernel: u_t + a(x,y)·grad(u) = 0 with a rigid
// rotation velocity field about the domain centre, advecting a Gaussian
// pulse forever around the domain. Upwind differencing, periodic domain.
type Transport struct {
	// TagThreshold is the undivided gradient magnitude above which a
	// cell is tagged.
	TagThreshold float64
}

// NewTransport returns the TP2D kernel with its standard threshold.
func NewTransport() *Transport { return &Transport{TagThreshold: 0.02} }

func (k *Transport) Name() string      { return "TP2D" }
func (k *Transport) NComp() int        { return 1 }
func (k *Transport) Ghost() int        { return 1 }
func (k *Transport) BC() field.BC      { return field.BCPeriodic }
func (k *Transport) MaxSpeed() float64 { return 2 * math.Pi * 0.75 }

// velocityX and velocityY are the components of the rotation field at
// (x, y) — solid-body rotation of period 1 about (0.5, 0.5). ax
// depends only on y and ay only on x, which is what lets Step hoist ax
// out of each row; these two are the single definition of the field.
func (k *Transport) velocityX(y float64) (ax float64) { return -2 * math.Pi * (y - 0.5) }
func (k *Transport) velocityY(x float64) (ay float64) { return 2 * math.Pi * (x - 0.5) }

func (k *Transport) Init(p *field.Patch, g Geometry) {
	gb := p.GrownBox()
	for j := gb.Lo[1]; j < gb.Hi[1]; j++ {
		row := p.Row(0, j)
		_, y := g.Center(0, j)
		dy := y - 0.25
		for i := range row {
			x, _ := g.Center(gb.Lo[0]+i, 0)
			dx := x - 0.5
			row[i] = math.Exp(-(dx*dx + dy*dy) / (2 * 0.05 * 0.05))
		}
	}
}

func (k *Transport) Step(p *field.Patch, t, dt float64, g Geometry) {
	old := p.Clone()
	defer old.Release()
	b := p.Box
	off := -p.GrownBox().Lo[0]
	for j := b.Lo[1]; j < b.Hi[1]; j++ {
		_, y := g.Center(0, j)
		// The x-velocity depends only on y; hoist it out of the row.
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

func (k *Transport) Tag(p *field.Patch, g Geometry, tag func(i, j int)) {
	tagAboveGrad(p, 0, k.TagThreshold, tag)
}

// ScalarWave is the SC2D kernel: the second-order wave equation
// u_tt = c^2 lap(u) written as the first-order system (u, v = u_t),
// driven by a compact oscillating source at the domain centre (the
// periodically excited field of a numerical-relativity scalar-wave
// test). Expanding wave rings are absorbed by a sponge layer near the
// boundary, so the refined region is a set of annuli that pulse with
// the source period — the oscillatory refinement dynamics the paper
// reports for SC2D. Components: 0 = u, 1 = v.
type ScalarWave struct {
	// C is the wave speed.
	C float64
	// SourcePeriod is the oscillation period of the central source.
	SourcePeriod float64
	// SourceAmp scales the source strength.
	SourceAmp float64
	// Damping is the lossy-medium attenuation rate: old rings fade so
	// the refined region stays a bounded set of recent annuli.
	Damping float64
	// TagThreshold is the undivided gradient threshold on u.
	TagThreshold float64
}

// NewScalarWave returns the SC2D kernel.
func NewScalarWave() *ScalarWave {
	return &ScalarWave{C: 1.0, SourcePeriod: 0.2, SourceAmp: 1, Damping: 2.5, TagThreshold: 0.08}
}

func (k *ScalarWave) Name() string      { return "SC2D" }
func (k *ScalarWave) NComp() int        { return 2 }
func (k *ScalarWave) Ghost() int        { return 1 }
func (k *ScalarWave) BC() field.BC      { return field.BCOutflow }
func (k *ScalarWave) MaxSpeed() float64 { return k.C * 2 } // stability margin for the 2-D stencil

func (k *ScalarWave) Init(p *field.Patch, g Geometry) {
	gb := p.GrownBox()
	for j := gb.Lo[1]; j < gb.Hi[1]; j++ {
		u := p.Row(0, j)
		v := p.Row(1, j)
		_, y := g.Center(0, j)
		dy := y - 0.5
		for i := range u {
			x, _ := g.Center(gb.Lo[0]+i, 0)
			dx := x - 0.5
			u[i] = math.Exp(-(dx*dx + dy*dy) / (2 * 0.05 * 0.05))
			v[i] = 0
		}
	}
}

// sponge returns the absorption factor at (x, y): 1 in the interior,
// falling towards 0 inside a boundary layer of width 0.1.
func sponge(x, y float64) float64 {
	edge := min(min(x, 1-x), min(y, 1-y))
	const w = 0.1
	if edge >= w {
		return 1
	}
	if edge < 0 {
		edge = 0
	}
	s := edge / w
	return s * s
}

func (k *ScalarWave) Step(p *field.Patch, t, dt float64, g Geometry) {
	old := p.Clone()
	defer old.Release()
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
			// Prescribed oscillator in the source region: the field there is
			// pinned to A sin(wt) with a compact profile, so the injected
			// amplitude is bounded by construction.
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

func (k *ScalarWave) Tag(p *field.Patch, g Geometry, tag func(i, j int)) {
	tagAboveGrad(p, 0, k.TagThreshold, tag)
}

// BuckleyLeverett is the BL2D kernel: water saturation transport
// S_t + div(f(S) u) = 0 with the Buckley–Leverett fractional-flow
// function f(S) = S^2 / (S^2 + M (1-S)^2) and a five-spot-style radial
// velocity field from an injection well in one corner towards a
// production well in the opposite corner. The injection rate follows a
// cyclic schedule (as in water-alternating injection practice), which —
// together with the sharpening/spreading of the saturation front —
// produces the oscillatory partitioning dynamics the paper shows for
// BL2D (Figures 1 and 5).
type BuckleyLeverett struct {
	// M is the water/oil mobility ratio.
	M float64
	// CyclePeriod is the injection-schedule period in simulation time.
	CyclePeriod float64
	// TagThreshold is the undivided gradient threshold on S.
	TagThreshold float64
}

// NewBuckleyLeverett returns the BL2D kernel.
func NewBuckleyLeverett() *BuckleyLeverett {
	return &BuckleyLeverett{M: 0.5, CyclePeriod: 0.25, TagThreshold: 0.02}
}

func (k *BuckleyLeverett) Name() string      { return "BL2D" }
func (k *BuckleyLeverett) NComp() int        { return 1 }
func (k *BuckleyLeverett) Ghost() int        { return 1 }
func (k *BuckleyLeverett) BC() field.BC      { return field.BCOutflow }
func (k *BuckleyLeverett) MaxSpeed() float64 { return 3.0 }

// frac is the Buckley–Leverett fractional flow function.
func (k *BuckleyLeverett) frac(s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	s2 := s * s
	o := 1 - s
	return s2 / (s2 + k.M*o*o)
}

// rateAt is the cyclic injection schedule: the rate swings between 0.4
// and 1.6 of nominal over one CyclePeriod (water-alternating
// injection). It depends only on t, so Step hoists it out of the cell
// loop.
func (k *BuckleyLeverett) rateAt(t float64) float64 {
	return 1.0 + 0.6*math.Sin(2*math.Pi*t/k.CyclePeriod)
}

// velocityRate is the five-spot field — source at (0,0), sink at (1,1),
// magnitude decaying with distance from the injector as in radial flow
// — scaled by the already-evaluated injection rate rateAt(t).
func (k *BuckleyLeverett) velocityRate(x, y, rate float64) (ux, uy float64) {
	r2 := x*x + y*y + 0.01
	s2 := (1-x)*(1-x) + (1-y)*(1-y) + 0.01
	// Superpose source (at origin) and sink (at far corner).
	ux = rate * (x/r2 + (1-x)/s2) * 0.25
	uy = rate * (y/r2 + (1-y)/s2) * 0.25
	return ux, uy
}

func (k *BuckleyLeverett) Init(p *field.Patch, g Geometry) {
	gb := p.GrownBox()
	for j := gb.Lo[1]; j < gb.Hi[1]; j++ {
		row := p.Row(0, j)
		_, y := g.Center(0, j)
		y2 := y * y
		for i := range row {
			x, _ := g.Center(gb.Lo[0]+i, 0)
			// Water slug near the injector, oil elsewhere.
			if x*x+y2 < 0.02 {
				row[i] = 1.0
			} else {
				row[i] = 0.0
			}
		}
	}
}

func (k *BuckleyLeverett) Step(p *field.Patch, t, dt float64, g Geometry) {
	old := p.Clone()
	defer old.Release()
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
			// Upwind flux differencing of f(S) u; the centre flux is
			// shared by both axes.
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
			// Injection well keeps the near-origin region saturated.
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

func (k *BuckleyLeverett) Tag(p *field.Patch, g Geometry, tag func(i, j int)) {
	tagAboveGrad(p, 0, k.TagThreshold, tag)
}
