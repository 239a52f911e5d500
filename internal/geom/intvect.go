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
// files and tier blobs encode all three.
//
// Every kernel computes in the x-y plane and reads the x and y corners
// directly; there is no loop over a Dim. That is sound because no box
// of another layout reaches one: every door geometry comes in by
// refuses it as it decodes — the wire (server's Box.toGeom and its
// request recogniser), the tier's blobs and the .trc reader (both
// through grid.CheckLayout: dim 2, third component Lo 0 / Hi 1) — and
// grid.Hierarchy.Validate refuses any Dim but 2 in a hierarchy built in
// memory. The zero Box{} is the one box of Dim 0 the program makes, as
// the identity of Union; it is empty with no cells, meets nothing, and
// Refine, Coarsen and Grow leave it as it is (box_test.go pins that).
// planar_test.go keeps the loops over the active dimensions that the
// kernels replaced, and checks the kernels box for box against them.
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

func (v IntVect) String() string {
	return fmt.Sprintf("(%d,%d,%d)", v[0], v[1], v[2])
}
