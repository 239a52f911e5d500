package geom

import (
	"math"
	"sort"
)

// BoxIndex is a uniform-bin spatial index over a BoxList, replacing the
// brute-force all-pairs intersection scans of the AMR substrate, the
// partitioners and the penalty models with O(1)-ish candidate lookups.
//
// Construction places every box in the single bin containing its Lo
// corner (its "home bin") and records the largest binned extent per
// dimension; a query then only has to scan the bin range covering the
// query box expanded by that extent. Boxes much larger than a bin would
// inflate the expansion for everyone, so they go to a small overflow
// list scanned linearly instead. Each box is stored exactly once, so
// queries never deduplicate.
//
// The index is immutable after New: all query methods are safe for
// concurrent use, which the parallel pipelines rely on.
// Bins key the x/y extents; the per-candidate test is exact, and is one
// of the package's planar kernels (intersects under Query, overlap
// under QueryVolume), so a member whose Dim is not 2 is tested and
// measured over its own active dimensions, as Box.Intersects and
// Box.Intersect(..).Volume() would.
type BoxIndex struct {
	boxes BoxList // the indexed boxes, original order and indices

	origin     IntVect // Lo corner of the bounding box
	binW, binH int     // bin edge lengths in cells
	nx, ny     int     // bin grid extents
	bins       [][]int32
	maxW, maxH int     // largest x/y extent among binned boxes
	overflow   []int32 // oversized (or degenerate-grid) boxes, ascending
}

// oversizeFactor: boxes wider or taller than this many bin edges bypass
// the bins. 4 keeps the query window small while sending few boxes
// (only the genuinely large ones, e.g. a whole-domain base box) to the
// linear list.
const oversizeFactor = 4

// NewBoxIndex indexes bl. The list is captured by reference and must not
// be mutated while the index is in use. Empty boxes are never returned
// by queries.
func NewBoxIndex(bl BoxList) *BoxIndex {
	ix := &BoxIndex{boxes: bl}
	var bounds Box
	n := 0
	for _, b := range bl {
		if !b.Empty() {
			bounds = bounds.Union(b)
			n++
		}
	}
	if n == 0 {
		return ix
	}
	ix.origin = bounds.Lo
	// Aim for O(1) boxes per bin and O(n) memory: a ~sqrt(n) x sqrt(n)
	// grid.
	side := int(math.Sqrt(float64(n))) + 1
	ix.binW = maxInt(1, ceilDiv(bounds.Size(0), side))
	ix.binH = maxInt(1, ceilDiv(bounds.Size(1), side))
	ix.nx = maxInt(1, ceilDiv(bounds.Size(0), ix.binW))
	ix.ny = maxInt(1, ceilDiv(bounds.Size(1), ix.binH))
	ix.bins = make([][]int32, ix.nx*ix.ny)
	for i, b := range bl {
		if b.Empty() {
			continue
		}
		w, h := b.Size(0), b.Size(1)
		if w > oversizeFactor*ix.binW || h > oversizeFactor*ix.binH {
			ix.overflow = append(ix.overflow, int32(i))
			continue
		}
		bx := (b.Lo[0] - ix.origin[0]) / ix.binW
		by := (b.Lo[1] - ix.origin[1]) / ix.binH
		bin := by*ix.nx + bx
		ix.bins[bin] = append(ix.bins[bin], int32(i))
		if w > ix.maxW {
			ix.maxW = w
		}
		if h > ix.maxH {
			ix.maxH = h
		}
	}
	return ix
}

// Box returns the indexed box at position i.
func (ix *BoxIndex) Box(i int) Box { return ix.boxes[i] }

// binRange returns the bin coordinate span a query for b must scan: home
// bins of boxes starting up to max-extent before b and anywhere below
// its upper bound.
func (ix *BoxIndex) binRange(b Box) (x0, x1, y0, y1 int) {
	x0 = (b.Lo[0] - ix.maxW + 1 - ix.origin[0]) / ix.binW
	y0 = (b.Lo[1] - ix.maxH + 1 - ix.origin[1]) / ix.binH
	x1 = (b.Hi[0] - 1 - ix.origin[0]) / ix.binW
	y1 = (b.Hi[1] - 1 - ix.origin[1]) / ix.binH
	x0, y0 = maxInt(x0, 0), maxInt(y0, 0)
	x1, y1 = minIntIdx(x1, ix.nx-1), minIntIdx(y1, ix.ny-1)
	return
}

// AppendQuery appends to out the indices (into the source list,
// ascending) of every indexed box intersecting b, and returns the
// extended slice. Pass out[:0] of a retained buffer to query without
// allocating.
func (ix *BoxIndex) AppendQuery(out []int, b Box) []int {
	if b.Empty() || (len(ix.bins) == 0 && len(ix.overflow) == 0) {
		return out
	}
	start := len(out)
	for _, i := range ix.overflow {
		if intersects(&ix.boxes[i], &b) {
			out = append(out, int(i))
		}
	}
	if len(ix.bins) > 0 {
		x0, x1, y0, y1 := ix.binRange(b)
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				for _, i := range ix.bins[by*ix.nx+bx] {
					if intersects(&ix.boxes[i], &b) {
						out = append(out, int(i))
					}
				}
			}
		}
	}
	// Each box lives in exactly one bin or the overflow list, so the
	// result has no duplicates; sort for deterministic ascending order
	// (call sites that copy overlapping data rely on source-list order).
	hits := out[start:]
	if len(hits) > 1 {
		sort.Ints(hits)
	}
	return out
}

// Query returns the indices of every indexed box intersecting b, in
// ascending source-list order.
func (ix *BoxIndex) Query(b Box) []int { return ix.AppendQuery(nil, b) }

// QueryVolume returns the total intersection volume between b and the
// indexed boxes: sum_i |boxes[i] x b|. For an internally disjoint list
// this is the covered volume of b, the quantity the penalty models and
// the partitioners' column weights sum.
func (ix *BoxIndex) QueryVolume(b Box) int64 {
	if b.Empty() || (len(ix.bins) == 0 && len(ix.overflow) == 0) {
		return 0
	}
	var total int64
	for _, i := range ix.overflow {
		total += overlap(&ix.boxes[i], &b)
	}
	if len(ix.bins) > 0 {
		x0, x1, y0, y1 := ix.binRange(b)
		for by := y0; by <= y1; by++ {
			for bx := x0; bx <= x1; bx++ {
				for _, i := range ix.bins[by*ix.nx+bx] {
					total += overlap(&ix.boxes[i], &b)
				}
			}
		}
	}
	return total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minIntIdx(a, b int) int {
	if a < b {
		return a
	}
	return b
}
