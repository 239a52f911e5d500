package geom

import "fmt"

// Box is an axis-aligned integer rectangle of grid cells. Lo is
// inclusive, Hi is exclusive. Dim is 2 in every box this repository
// builds and the unused third component of Lo/Hi is pinned at Lo=0,
// Hi=1: the layout hierarchy signatures, .trc files and tier blobs
// encode, and the only one their decoders admit (see the package
// comment). The methods compute in the x-y plane.
type Box struct {
	Lo, Hi IntVect
	Dim    int
}

// NewBox2 returns the 2-D box [x0,x1) x [y0,y1).
func NewBox2(x0, y0, x1, y1 int) Box {
	return Box{Lo: IntVect{x0, y0, 0}, Hi: IntVect{x1, y1, 1}, Dim: 2}
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool { return b.Hi[0] <= b.Lo[0] || b.Hi[1] <= b.Lo[1] }

// Volume returns the number of cells in the box (0 if empty).
func (b Box) Volume() int64 {
	if b.Empty() {
		return 0
	}
	return int64(b.Hi[0]-b.Lo[0]) * int64(b.Hi[1]-b.Lo[1])
}

// Size returns the extent of the box along dimension d.
func (b Box) Size(d int) int { return b.Hi[d] - b.Lo[d] }

// Surface returns the number of boundary faces of the box, i.e. the count
// of (cell, face) pairs on the box surface: 2*(nx+ny) for a box of size
// nx x ny. It is the ghost-exchange volume for a one-cell-wide halo.
func (b Box) Surface() int64 {
	if b.Empty() {
		return 0
	}
	return 2 * (int64(b.Size(0)) + int64(b.Size(1)))
}

// Contains reports whether cell p lies inside the box.
func (b Box) Contains(p IntVect) bool {
	return b.Lo[0] <= p[0] && p[0] < b.Hi[0] && b.Lo[1] <= p[1] && p[1] < b.Hi[1]
}

// ContainsBox reports whether o is entirely inside b. An empty o is
// contained in anything.
func (b Box) ContainsBox(o Box) bool {
	return o.Empty() || b.Lo[0] <= o.Lo[0] && b.Lo[1] <= o.Lo[1] && o.Hi[0] <= b.Hi[0] && o.Hi[1] <= b.Hi[1]
}

// Intersect returns the overlap of b and o (possibly empty).
func (b Box) Intersect(o Box) Box {
	r := Box{Dim: b.Dim}
	for d := range r.Lo {
		r.Lo[d], r.Hi[d] = max(b.Lo[d], o.Lo[d]), min(b.Hi[d], o.Hi[d])
	}
	if r.Empty() {
		r.Hi = r.Lo
	}
	return r
}

// overlap returns a.Intersect(*b).Volume() without building the box.
func overlap(a, b *Box) int64 {
	lo0, hi0 := max(a.Lo[0], b.Lo[0]), min(a.Hi[0], b.Hi[0])
	lo1, hi1 := max(a.Lo[1], b.Lo[1]), min(a.Hi[1], b.Hi[1])
	if hi0 <= lo0 || hi1 <= lo1 {
		return 0
	}
	return int64(hi0-lo0) * int64(hi1-lo1)
}

// Intersects reports whether b and o share at least one cell.
func (b Box) Intersects(o Box) bool { return intersects(&b, &o) }

// intersects is Intersects through pointers, for scans over lists.
func intersects(a, b *Box) bool {
	return a.Lo[0] < b.Hi[0] && b.Lo[0] < a.Hi[0] && a.Lo[1] < b.Hi[1] && b.Lo[1] < a.Hi[1] &&
		!a.Empty() && !b.Empty()
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{Lo: b.Lo.Min(o.Lo), Hi: b.Hi.Max(o.Hi), Dim: b.Dim}
}

// Grow returns the box expanded by n cells in every direction (negative n
// shrinks). The result may be empty for negative n. Box{}, the identity
// of Union, stays Box{}.
func (b Box) Grow(n int) Box {
	if b == (Box{}) {
		return b
	}
	r := b
	for d := 0; d < 2; d++ {
		r.Lo[d] -= n
		r.Hi[d] += n
	}
	return r
}

// Refine returns the box mapped to a grid r times finer: indices scale
// by r. Refining then coarsening is the identity.
func (b Box) Refine(r int) Box {
	res := b
	for d := 0; d < 2; d++ {
		res.Lo[d] = b.Lo[d] * r
		res.Hi[d] = b.Hi[d] * r
	}
	return res
}

// Coarsen returns the box mapped to a grid r times coarser, rounding
// outward so the coarse box covers every fine cell (floor for Lo,
// ceiling for Hi).
func (b Box) Coarsen(r int) Box {
	res := b
	for d := 0; d < 2; d++ {
		res.Lo[d] = floorDiv(b.Lo[d], r)
		res.Hi[d] = ceilDiv(b.Hi[d], r)
	}
	return res
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }

// ChopDim splits the box at coordinate c along dimension d, returning the
// lower part [Lo, c) and the upper part [c, Hi). c must satisfy
// Lo[d] <= c <= Hi[d]; out-of-range values are clamped.
func (b Box) ChopDim(d, c int) (lo, hi Box) {
	if c < b.Lo[d] {
		c = b.Lo[d]
	}
	if c > b.Hi[d] {
		c = b.Hi[d]
	}
	lo, hi = b, b
	lo.Hi[d] = c
	hi.Lo[d] = c
	return lo, hi
}

// LongestDim returns the dimension along which the box is largest.
func (b Box) LongestDim() int {
	best, bd := -1, 0
	for d := 0; d < 2; d++ {
		if s := b.Size(d); s > best {
			best, bd = s, d
		}
	}
	return bd
}

// Subtract returns b minus o as a list of disjoint boxes. The result is
// empty when o covers b, and is {b} when they do not intersect.
func (b Box) Subtract(o Box) []Box {
	ov := b.Intersect(o)
	if ov.Empty() {
		if b.Empty() {
			return nil
		}
		return []Box{b}
	}
	var out []Box
	rem := b
	for d := 0; d < 2; d++ {
		if rem.Lo[d] < ov.Lo[d] {
			lo, hi := rem.ChopDim(d, ov.Lo[d])
			if !lo.Empty() {
				out = append(out, lo)
			}
			rem = hi
		}
		if ov.Hi[d] < rem.Hi[d] {
			lo, hi := rem.ChopDim(d, ov.Hi[d])
			if !hi.Empty() {
				out = append(out, hi)
			}
			rem = lo
		}
	}
	return out
}

// Cells calls f for every cell of the box in row-major order (x fastest).
func (b Box) Cells(f func(p IntVect)) {
	if b.Empty() {
		return
	}
	for y := b.Lo[1]; y < b.Hi[1]; y++ {
		for x := b.Lo[0]; x < b.Hi[0]; x++ {
			f(IntVect{x, y, 0})
		}
	}
}

func (b Box) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d]", b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1])
}
