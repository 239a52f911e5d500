package solver

import (
	"math"

	"samr/internal/field"
)

// Euler is the RM2D kernel: the 2-D compressible Euler equations solved
// with a first-order Rusanov (local Lax–Friedrichs) finite-volume scheme.
// The initial condition is a Richtmyer–Meshkov configuration: a planar
// shock travelling in +x towards a sinusoidally perturbed density
// interface. As the shock crosses the interface the perturbation grows
// into the fingering instability, driving the irregular refinement
// dynamics the paper reports for RM2D (Figure 4).
//
// Components: 0 = rho, 1 = rho*u, 2 = rho*v, 3 = E (total energy).
type Euler struct {
	// Gamma is the ratio of specific heats.
	Gamma float64
	// MachShock controls the strength of the incident shock via the
	// post-shock pressure ratio.
	ShockPressureRatio float64
	// Amplitude and Modes shape the interface perturbation.
	Amplitude float64
	Modes     int
	// TagThreshold is the undivided density-gradient threshold.
	TagThreshold float64
}

// NewEuler returns the RM2D kernel with a Mach ~1.5 shock and a
// three-mode interface perturbation.
func NewEuler() *Euler {
	return &Euler{
		Gamma:              1.4,
		ShockPressureRatio: 2.5,
		Amplitude:          0.03,
		Modes:              3,
		TagThreshold:       0.06,
	}
}

func (k *Euler) Name() string { return "RM2D" }
func (k *Euler) NComp() int   { return 4 }
func (k *Euler) Ghost() int   { return 1 }
func (k *Euler) BC() field.BC { return field.BCOutflow }

// MaxSpeed bounds |u| + c for the shocked state.
func (k *Euler) MaxSpeed() float64 { return 4.0 }

// primitive converts the conserved state to (rho, u, v, p).
func (k *Euler) primitive(rho, mu, mv, e float64) (r, u, v, p float64) {
	if rho < 1e-10 {
		rho = 1e-10
	}
	u, v = mu/rho, mv/rho
	p = (k.Gamma - 1) * (e - 0.5*rho*(u*u+v*v))
	if p < 1e-10 {
		p = 1e-10
	}
	return rho, u, v, p
}

// conserved converts the primitive state to the conserved vector.
func (k *Euler) conserved(rho, u, v, p float64) [4]float64 {
	return [4]float64{
		rho, rho * u, rho * v,
		p/(k.Gamma-1) + 0.5*rho*(u*u+v*v),
	}
}

func (k *Euler) Init(p *field.Patch, g Geometry) {
	// Pre-shock ambient: rho=1, p=1, at rest. Heavy fluid (rho=3)
	// right of the perturbed interface at x ~ 0.55. Shocked state left
	// of x = 0.35 moving right (Rankine–Hugoniot for the pressure
	// ratio).
	gam := k.Gamma
	pr := k.ShockPressureRatio
	// Post-shock state from the normal-shock relations with p1=1,rho1=1.
	rho2 := ((gam+1)*pr + (gam - 1)) / ((gam-1)*pr + (gam + 1))
	u2 := (pr - 1) * math.Sqrt(2/(gam*((gam+1)*pr+(gam-1))))
	shocked := k.conserved(rho2, u2, 0, pr)
	light := k.conserved(1, 0, 0, 1)
	heavy := k.conserved(3, 0, 0, 1)
	gb := p.GrownBox()
	var rows [4][]float64
	for j := gb.Lo[1]; j < gb.Hi[1]; j++ {
		for c := 0; c < 4; c++ {
			rows[c] = p.Row(c, j)
		}
		_, y := g.Center(0, j)
		// The interface position depends only on y; hoist it.
		iface := 0.55 + k.Amplitude*math.Cos(2*math.Pi*float64(k.Modes)*y)
		for i := range rows[0] {
			x, _ := g.Center(gb.Lo[0]+i, 0)
			var st [4]float64
			switch {
			case x < 0.35: // shocked region
				st = shocked
			case x < iface: // ambient light fluid
				st = light
			default: // heavy fluid
				st = heavy
			}
			for c := 0; c < 4; c++ {
				rows[c][i] = st[c]
			}
		}
	}
}

// eulerCell is everything the Rusanov flux takes from one cell, derived
// once per step and shared by the four faces the cell borders.
type eulerCell struct {
	q [4]float64    // conserved state as stored
	s [2]float64    // fastest signal speed along x and y: |u|+c, |v|+c, c = sqrt(Gamma*p/rho)
	f [2][4]float64 // physical flux along x and y, components in storage order
}

// derive fills row with the cells [x0, x0+len(row)) of patch row y.
// The y-flux is the x-flux of the state with its momenta exchanged,
// written back in storage order; the pressure is the same either way
// because the only thing the exchange does to primitive is turn
// u*u+v*v into v*v+u*u.
func (k *Euler) derive(row []eulerCell, p *field.Patch, y, x0 int) {
	x1 := x0 + len(row)
	r0, r1 := p.RowSpan(0, y, x0, x1), p.RowSpan(1, y, x0, x1)
	r2, r3 := p.RowSpan(2, y, x0, x1), p.RowSpan(3, y, x0, x1)
	for o := range row {
		mu, mv, e := r1[o], r2[o], r3[o]
		rho, u, v, pr := k.primitive(r0[o], mu, mv, e)
		c := math.Sqrt(k.Gamma * pr / rho)
		cell := &row[o]
		cell.q = [4]float64{r0[o], mu, mv, e}
		cell.s = [2]float64{math.Abs(u) + c, math.Abs(v) + c}
		cell.f[0] = [4]float64{mu, mu*u + pr, mv * u, (e + pr) * u}
		cell.f[1] = [4]float64{mv, mu * v, mv*v + pr, (e + pr) * v}
	}
}

// rusanov computes the Rusanov numerical flux through the face between
// l and r, its neighbour in the positive direction of axis (0 = x,
// 1 = y).
func rusanov(l, r *eulerCell, axis int) (out [4]float64) {
	smax := math.Max(l.s[axis], r.s[axis])
	fl, fr := &l.f[axis], &r.f[axis]
	for c := 0; c < 4; c++ {
		out[c] = 0.5*(fl[c]+fr[c]) - 0.5*smax*(r.q[c]-l.q[c])
	}
	return out
}

// Step updates the patch in place, without the whole-patch clone the
// other kernels take: lo and hi hold the derived cells of rows j and
// j+1, and fy the fluxes through the faces below row j. Row j+1 is
// derived before row j is overwritten, and nothing reads a row from the
// patch after that, so every flux sees the old time level. Each face
// flux is computed once — the x-flux is carried from cell to cell, the
// y-flux through a cell's upper face replaces the lower one in fy for
// the next row. The goldens pin this kernel's output to the bit, so the
// arithmetic of every flux and of the update keeps its operands and
// association; the test oracle recomputes all four fluxes per cell
// from the stored state.
func (k *Euler) Step(p *field.Patch, t, dt float64, g Geometry) {
	lam := dt / g.Dx
	b := p.Box
	w := b.Size(0)
	cells := make([]eulerCell, 2*(w+2))
	lo, hi := cells[:w+2], cells[w+2:]
	fy := make([][4]float64, w)
	k.derive(lo, p, b.Lo[1]-1, b.Lo[0]-1)
	k.derive(hi, p, b.Lo[1], b.Lo[0]-1)
	for i := range fy {
		fy[i] = rusanov(&lo[i+1], &hi[i+1], 1)
	}
	var dst [4][]float64
	for j := b.Lo[1]; j < b.Hi[1]; j++ {
		lo, hi = hi, lo
		k.derive(hi, p, j+1, b.Lo[0]-1)
		for c := range dst {
			dst[c] = p.RowSpan(c, j, b.Lo[0], b.Hi[0])
		}
		fxm := rusanov(&lo[0], &lo[1], 0)
		for i := range fy {
			c0 := &lo[i+1]
			fxp, fym, fyp := rusanov(c0, &lo[i+2], 0), fy[i], rusanov(c0, &hi[i+1], 1)
			for c := 0; c < 4; c++ {
				dst[c][i] = c0.q[c] - lam*(fxp[c]-fxm[c]) - lam*(fyp[c]-fym[c])
			}
			// Positivity floor on density and pressure.
			if dst[0][i] < 1e-8 {
				dst[0][i] = 1e-8
			}
			fxm, fy[i] = fxp, fyp
		}
	}
}

func (k *Euler) Tag(p *field.Patch, g Geometry, tag func(i, j int)) {
	tagAboveGrad(p, 0, k.TagThreshold, tag)
}
