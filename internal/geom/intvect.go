// Package geom provides the integer geometry primitives underlying a
// structured adaptive mesh refinement (SAMR) grid hierarchy: integer
// vectors, axis-aligned integer boxes, and box-list algebra (intersection,
// area-of-union, refinement, coarsening, chopping, growing).
//
// For anything that would otherwise scan box pairs quadratically —
// ghost-exchange candidates, column workloads, migration overlap — the
// package provides BoxIndex, a uniform-bin spatial index built once per
// BoxList and queried in near-constant time per box (Query for the
// intersecting members, QueryVolume for the total overlap volume). The
// index is immutable and safe for concurrent queries; OverlapVolume
// routes through it automatically above a small-input cutoff.
//
// All boxes are cell-centred and use inclusive lower and exclusive upper
// bounds, i.e. a Box{Lo, Hi} covers the cells Lo <= c < Hi in each
// dimension. Geometry is two-dimensional, as the paper's evaluation is:
// corners keep MaxDim (3) components because hierarchy signatures, .trc
// files and tier blobs encode all three, and grid.Hierarchy.Validate
// refuses a box whose Dim is not 2.
//
// Box.Empty, Box.Volume, the unexported overlap (a.Intersect(b).Volume()
// without the box, under QueryVolume and OverlapVolumeNaive), intersects
// (Box.Intersects through pointers, under AppendQuery) and planarMiss
// (Simplify's pre-test) are planar kernels: when the receiver's Dim is
// 2 they read the x and y corners directly. A box decoded from a .trc
// or a tier blob carries whatever Dim was written until Validate
// refuses it, and Box{} (Dim 0) is the identity of Union, so each
// kernel keeps, behind its Dim == 2 branch, the loop over the active
// dimensions, and answers for every other Dim what that loop answers:
// a Dim 0 box is empty, a Dim 1 box is an interval on x, a Dim 3 box
// has depth. For those Dims nothing changed, by construction; for Dim
// 2 the branch is the loop written out, and planar_test.go checks it
// box for box against the loops.
package geom

import "fmt"

// MaxDim is the number of components a corner carries in memory and in
// every encoding; boxes use the first two.
const MaxDim = 3

// IntVect is a point on the integer lattice. Components beyond the active
// dimensionality of a Box are ignored and must be zero-initialized.
type IntVect [MaxDim]int

// IV2 returns a 2-D integer vector.
func IV2(x, y int) IntVect { return IntVect{x, y, 0} }

// Min returns the component-wise minimum of v and w.
func (v IntVect) Min(w IntVect) IntVect {
	for d := 0; d < MaxDim; d++ {
		if w[d] < v[d] {
			v[d] = w[d]
		}
	}
	return v
}

// Max returns the component-wise maximum of v and w.
func (v IntVect) Max(w IntVect) IntVect {
	for d := 0; d < MaxDim; d++ {
		if w[d] > v[d] {
			v[d] = w[d]
		}
	}
	return v
}

// AllGE reports whether every component of v is >= the matching component
// of w, considering only the first dim components.
func (v IntVect) AllGE(w IntVect, dim int) bool {
	for d := 0; d < dim; d++ {
		if v[d] < w[d] {
			return false
		}
	}
	return true
}

// AllLE reports whether every component of v is <= the matching component
// of w, considering only the first dim components.
func (v IntVect) AllLE(w IntVect, dim int) bool {
	for d := 0; d < dim; d++ {
		if v[d] > w[d] {
			return false
		}
	}
	return true
}

func (v IntVect) String() string {
	return fmt.Sprintf("(%d,%d,%d)", v[0], v[1], v[2])
}
