// Package field provides per-patch cell-centred solution storage for the
// AMR solver substrate: patch arrays with ghost halos, same-level ghost
// exchange, coarse-to-fine prolongation and fine-to-coarse restriction,
// and physical boundary fills. Everything is 2-D, matching the paper's
// evaluation suite.
//
// # Row-slice contract
//
// Patch data is a single row-major slab (component-major, then y, then
// x). Row and RowSpan expose storage rows directly; kernels and the
// transfer operators stream them with tight index loops instead of
// paying per-cell At/Set offset arithmetic. The slab is owned
// exclusively by the patch: only the owning patch's methods and callers
// holding a row slice may touch it. Each patch allocates its own
// exact-size slab and the garbage collector reclaims it with the patch;
// nothing keeps a retired patch's storage for reuse, so a replaced level
// stops counting toward the live heap as soon as the driver drops it.
//
// During a parallel driver phase each patch is written by exactly one
// goroutine — the one the driver assigned the patch to — and sibling
// patches are only read (ghost exchange reads sibling interiors,
// prolongation reads the parent level). Halo cells are owned by the
// patch they pad: a step writes the interior only, while the fill
// phases (prolongation, exchange, physical BC) write the halo of the
// patch being filled and nothing else. That write-ownership split is
// what makes the parallel phases bit-identical to a sequential sweep at
// any worker count.
package field

import (
	"fmt"
	"math"

	"samr/internal/geom"
)

// Patch is solution data on one grid patch: NComp components over the
// patch interior plus a ghost halo of width Ghost on every side.
type Patch struct {
	// Box is the interior region (no ghosts), in the owning level's
	// index space.
	Box geom.Box
	// Ghost is the halo width in cells.
	Ghost int
	// NComp is the number of solution components.
	NComp int

	grown  geom.Box // Box.Grow(Ghost), cached
	nx, ny int      // grown extents
	data   []float64
}

// NewPatch allocates zeroed storage for box with the given halo width
// and component count: one slab of exactly NComp × grown-box cells,
// owned by the patch alone.
func NewPatch(box geom.Box, ghost, ncomp int) *Patch {
	g := box.Grow(ghost)
	p := &Patch{
		Box:   box,
		Ghost: ghost,
		NComp: ncomp,
		grown: g,
		nx:    g.Size(0),
		ny:    g.Size(1),
	}
	p.data = make([]float64, p.nx*p.ny*ncomp)
	return p
}

// GrownBox returns the interior plus halo region.
func (p *Patch) GrownBox() geom.Box { return p.grown }

// index returns the flat offset of (c, x, y); x and y are absolute
// level-space coordinates that must lie inside the grown box.
func (p *Patch) index(c, x, y int) int {
	return (c*p.ny+(y-p.grown.Lo[1]))*p.nx + (x - p.grown.Lo[0])
}

// At returns component c at cell (x, y).
func (p *Patch) At(c, x, y int) float64 { return p.data[p.index(c, x, y)] }

// CompStride returns the flat-offset distance between the same cell of
// consecutive components.
func (p *Patch) CompStride() int { return p.nx * p.ny }

// Row returns the storage row of component c at absolute y spanning the
// grown box: row[i] is cell x = GrownBox().Lo[0]+i. The slice aliases
// the patch's data; writes through it are writes to the patch.
func (p *Patch) Row(c, y int) []float64 {
	off := (c*p.ny + (y - p.grown.Lo[1])) * p.nx
	return p.data[off : off+p.nx : off+p.nx]
}

// RowSpan returns the cells [x0, x1) of component c's row at absolute
// y: row[i] is cell x0+i. Both bounds must lie inside the grown box.
func (p *Patch) RowSpan(c, y, x0, x1 int) []float64 {
	off := (c*p.ny+(y-p.grown.Lo[1]))*p.nx + (x0 - p.grown.Lo[0])
	return p.data[off : off+(x1-x0) : off+(x1-x0)]
}

// InteriorRows calls f for every interior row of component c in
// ascending y; row[i] is cell x = Box.Lo[0]+i.
func (p *Patch) InteriorRows(c int, f func(y int, row []float64)) {
	for y := p.Box.Lo[1]; y < p.Box.Hi[1]; y++ {
		f(y, p.RowSpan(c, y, p.Box.Lo[0], p.Box.Hi[0]))
	}
}

// Fill sets every cell (including ghosts) of component c to v.
func (p *Patch) Fill(c int, v float64) {
	base := c * p.ny * p.nx
	row := p.data[base : base+p.ny*p.nx]
	for i := range row {
		row[i] = v
	}
}

// CopyRegion copies all components over the cells of region (which must
// lie inside both patches' grown boxes) from src to p. Coordinates are
// shared level space.
func (p *Patch) CopyRegion(src *Patch, region geom.Box) {
	region = region.Intersect(p.grown).Intersect(src.grown)
	if region.Empty() {
		return
	}
	w := region.Size(0)
	for c := 0; c < p.NComp; c++ {
		di := p.index(c, region.Lo[0], region.Lo[1])
		si := src.index(c, region.Lo[0], region.Lo[1])
		for y := region.Lo[1]; y < region.Hi[1]; y++ {
			copy(p.data[di:di+w], src.data[si:si+w])
			di += p.nx
			si += src.nx
		}
	}
}

// MaxAbs returns the maximum absolute value of component c over the
// interior.
func (p *Patch) MaxAbs(c int) float64 {
	var m float64
	p.InteriorRows(c, func(_ int, row []float64) {
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
	})
	return m
}

// SumInterior returns the sum of component c over the interior; used by
// conservation tests.
func (p *Patch) SumInterior(c int) float64 {
	var s float64
	p.InteriorRows(c, func(_ int, row []float64) {
		for _, v := range row {
			s += v
		}
	})
	return s
}

func (p *Patch) String() string {
	return fmt.Sprintf("Patch{%v ghost=%d ncomp=%d}", p.Box, p.Ghost, p.NComp)
}

// BC selects the physical boundary treatment at the domain edge.
type BC int

const (
	// BCPeriodic wraps the domain torus-fashion.
	BCPeriodic BC = iota
	// BCOutflow copies the nearest interior value outward
	// (zero-gradient / transmissive).
	BCOutflow
	// BCReflect mirrors interior values across the wall.
	BCReflect
)

// ExchangeGhosts fills ghost cells of every patch in patches from the
// interiors of sibling patches on the same level. Cells not covered by a
// sibling are left untouched (they are later filled by prolongation or
// physical BC). Sibling lookup goes through a BoxIndex over the patch
// interiors, so the exchange is near-linear in the patch count instead
// of all-pairs.
func ExchangeGhosts(patches []*Patch) {
	if len(patches) < 2 {
		return
	}
	ix := interiorIndex(patches)
	var buf []int
	for di := range patches {
		buf = exchangeInto(patches, ix, di, buf)
	}
}

// interiorIndex builds the sibling-lookup BoxIndex over the patch
// interiors.
func interiorIndex(patches []*Patch) *geom.BoxIndex {
	boxes := make(geom.BoxList, len(patches))
	for i, p := range patches {
		boxes[i] = p.Box
	}
	return geom.NewBoxIndex(boxes)
}

func exchangeInto(patches []*Patch, ix *geom.BoxIndex, di int, buf []int) []int {
	dst := patches[di]
	halo := dst.GrownBox()
	buf = ix.AppendQuery(buf[:0], halo)
	for _, si := range buf {
		if si == di {
			continue
		}
		src := patches[si]
		ov := halo.Intersect(src.Box)
		if !ov.Empty() {
			dst.CopyRegion(src, ov)
		}
	}
	return buf
}

// FillPhysical fills the portion of dst's halo that lies outside domain
// according to bc. For periodic boundaries, patches must collectively
// cover the domain for the wrap copy to find a source.
func FillPhysical(dst *Patch, patches []*Patch, domain geom.Box, bc BC) {
	halo := dst.GrownBox()
	outside := geom.BoxList{halo}.SubtractBox(domain)
	if len(outside) == 0 {
		return
	}
	nx, ny := domain.Size(0), domain.Size(1)
	for _, ob := range outside {
		for y := ob.Lo[1]; y < ob.Hi[1]; y++ {
			// The source row depends only on y; hoist it out of the
			// cell loop.
			var sy int
			switch bc {
			case BCPeriodic:
				sy = mod(y-domain.Lo[1], ny) + domain.Lo[1]
			case BCOutflow:
				sy = clamp(y, domain.Lo[1], domain.Hi[1]-1)
			case BCReflect:
				sy = reflect(y, domain.Lo[1], domain.Hi[1])
			}
			for x := ob.Lo[0]; x < ob.Hi[0]; x++ {
				var sx int
				switch bc {
				case BCPeriodic:
					sx = mod(x-domain.Lo[0], nx) + domain.Lo[0]
				case BCOutflow:
					sx = clamp(x, domain.Lo[0], domain.Hi[0]-1)
				case BCReflect:
					sx = reflect(x, domain.Lo[0], domain.Hi[0])
				}
				copyCell(dst, patches, x, y, sx, sy)
			}
		}
	}
}

// copyCell copies all components of source cell (sx, sy) — found in dst
// itself or any sibling patch — into dst cell (x, y).
func copyCell(dst *Patch, patches []*Patch, x, y, sx, sy int) {
	src := dst
	p := geom.IV2(sx, sy)
	if !dst.Box.Contains(p) {
		for _, q := range patches {
			if q.Box.Contains(p) {
				src = q
				break
			}
		}
	}
	if !src.GrownBox().Contains(p) {
		return
	}
	di, ds := dst.index(0, x, y), dst.CompStride()
	si, ss := src.index(0, sx, sy), src.CompStride()
	for c := 0; c < dst.NComp; c++ {
		dst.data[di] = src.data[si]
		di += ds
		si += ss
	}
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// reflect mirrors index v into [lo, hi) across the nearest wall.
func reflect(v, lo, hi int) int {
	if v < lo {
		return clamp(2*lo-1-v, lo, hi-1)
	}
	if v >= hi {
		return clamp(2*hi-1-v, lo, hi-1)
	}
	return v
}

// ProlongLinear fills the cells of region (fine index space) in fine by
// bilinear interpolation from coarse cell centres. Smoother than
// piecewise-constant injection: it avoids the staircase ghosts that
// second-order stencils amplify into spurious refinement. Cells whose
// interpolation stencil leaves the coarse patch's grown box fall back to
// the nearest covered neighbour; cells with no coverage at all are left
// untouched.
func ProlongLinear(fine *Patch, coarse *Patch, region geom.Box, ratio int) {
	region = region.Intersect(fine.GrownBox())
	if region.Empty() {
		return
	}
	cg := coarse.GrownBox()
	r := float64(ratio)

	// The x-direction stencil (columns i0/i1, weight tx, coverage) is
	// independent of y; precompute it once for the whole region. Halo
	// frames are thin, so the stencil usually fits a stack buffer.
	w := region.Size(0)
	var (
		bi0, bi1 [64]int32
		btx      [64]float64
		bok      [64]bool
	)
	xi0, xi1, xtx, xok := bi0[:], bi1[:], btx[:], bok[:]
	if w > len(bi0) {
		xi0 = make([]int32, w)
		xi1 = make([]int32, w)
		xtx = make([]float64, w)
		xok = make([]bool, w)
	} else {
		xi0, xi1, xtx, xok = xi0[:w], xi1[:w], xtx[:w], xok[:w]
		clear(xok)
	}
	for i := 0; i < w; i++ {
		x := region.Lo[0] + i
		// Coarse-space coordinate of the fine cell centre and the
		// surrounding coarse cell centres: i0+0.5 <= xc < i0+1.5.
		xc := (float64(x) + 0.5) / r
		i0 := int(math.Floor(xc - 0.5))
		xtx[i] = xc - (float64(i0) + 0.5)
		i1 := i0 + 1
		// Clamp the stencil into the coarse grown box.
		if i0 < cg.Lo[0] {
			i0 = cg.Lo[0]
		}
		if i1 > cg.Hi[0]-1 {
			i1 = cg.Hi[0] - 1
		}
		if i0 > i1 || i0 < cg.Lo[0] {
			continue // no coverage in x
		}
		xi0[i], xi1[i] = int32(i0-cg.Lo[0]), int32(i1-cg.Lo[0])
		xok[i] = true
	}

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
		for c := 0; c < fine.NComp; c++ {
			crow0 := coarse.Row(c, j0)
			crow1 := coarse.Row(c, j1)
			frow := fine.RowSpan(c, y, region.Lo[0], region.Hi[0])
			for i := 0; i < w; i++ {
				if !xok[i] {
					continue
				}
				i0, i1 := xi0[i], xi1[i]
				tx := xtx[i]
				v00 := crow0[i0]
				v10 := crow0[i1]
				v01 := crow1[i0]
				v11 := crow1[i1]
				frow[i] = (1-tx)*(1-ty)*v00 + tx*(1-ty)*v10 + (1-tx)*ty*v01 + tx*ty*v11
			}
		}
	}
}

// Restrict conservatively averages the fine patch's interior down onto
// the overlapping cells of the coarse patch.
func Restrict(coarse *Patch, fine *Patch, ratio int) {
	fineOnCoarse := fine.Box.Coarsen(ratio).Intersect(coarse.Box)
	if fineOnCoarse.Empty() {
		return
	}
	inv := 1.0 / float64(ratio*ratio)
	full := ratio * ratio
	var frowsBuf [8][]float64
	frows := frowsBuf[:]
	if ratio > len(frowsBuf) {
		frows = make([][]float64, ratio)
	} else {
		frows = frows[:ratio]
	}
	for c := 0; c < coarse.NComp; c++ {
		for y := fineOnCoarse.Lo[1]; y < fineOnCoarse.Hi[1]; y++ {
			// Hoist the covered fine rows of this coarse row; nil marks
			// a row outside the fine interior.
			for dy := 0; dy < ratio; dy++ {
				fy := y*ratio + dy
				if fy >= fine.Box.Lo[1] && fy < fine.Box.Hi[1] {
					frows[dy] = fine.Row(c, fy)
				} else {
					frows[dy] = nil
				}
			}
			crow := coarse.RowSpan(c, y, fineOnCoarse.Lo[0], fineOnCoarse.Hi[0])
			fxlo := fine.grown.Lo[0]
			// Coarse cells in [qlo, qhi) have their whole ratio x ratio
			// block inside the fine interior in x; with all rows
			// resident they sum without per-cell guards, in the same
			// dy-outer dx-inner order as the guarded path.
			qlo := ceilDiv(fine.Box.Lo[0], ratio)
			qhi := floorDiv(fine.Box.Hi[0], ratio)
			allRows := true
			for dy := 0; dy < ratio; dy++ {
				allRows = allRows && frows[dy] != nil
			}
			for i := range crow {
				qx := fineOnCoarse.Lo[0] + i
				if allRows && qx >= qlo && qx < qhi {
					base := qx*ratio - fxlo
					var sum float64
					for dy := 0; dy < ratio; dy++ {
						frow := frows[dy]
						for dx := 0; dx < ratio; dx++ {
							sum += frow[base+dx]
						}
					}
					crow[i] = sum * inv
					continue
				}
				var sum float64
				n := 0
				for dy := 0; dy < ratio; dy++ {
					frow := frows[dy]
					if frow == nil {
						continue
					}
					for dx := 0; dx < ratio; dx++ {
						fx := qx*ratio + dx
						if fx >= fine.Box.Lo[0] && fx < fine.Box.Hi[0] {
							sum += frow[fx-fxlo]
							n++
						}
					}
				}
				if n == full {
					crow[i] = sum * inv
				}
			}
		}
	}
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return floorDiv(a+b-1, b) }
