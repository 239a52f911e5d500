package geom

import (
	"cmp"
	"context"
	"slices"
)

// BoxList is an ordered collection of boxes on one refinement level. The
// boxes of a well-formed SAMR level are pairwise disjoint, but BoxList
// itself does not enforce disjointness; use Disjoint to check and
// SimplifyContext to canonicalize.
type BoxList []Box

// TotalVolume returns the sum of the member volumes. For a disjoint list
// this is the number of covered cells.
func (bl BoxList) TotalVolume() int64 {
	var v int64
	for _, b := range bl {
		v += b.Volume()
	}
	return v
}

// TotalSurface returns the sum of member surfaces (boundary face count).
func (bl BoxList) TotalSurface() int64 {
	var s int64
	for _, b := range bl {
		s += b.Surface()
	}
	return s
}

// Clone returns a deep copy of the list.
func (bl BoxList) Clone() BoxList {
	out := make(BoxList, len(bl))
	copy(out, bl)
	return out
}

// Corners is a list of 2-D boxes held as their corners, four a box:
// x0, y0, x1, y1 of NewBox2(x0, y0, x1, y1). A reader of boxes from the
// wire keeps them so, and builds a BoxList only where one is needed.
type Corners []int

// BoxList returns the boxes as an exact-size list.
func (c Corners) BoxList() BoxList {
	out := make(BoxList, len(c)/4)
	for i := range out {
		out[i] = NewBox2(c[4*i], c[4*i+1], c[4*i+2], c[4*i+3])
	}
	return out
}

// Refine returns the list with every box refined by r.
func (bl BoxList) Refine(r int) BoxList {
	out := make(BoxList, len(bl))
	for i, b := range bl {
		out[i] = b.Refine(r)
	}
	return out
}

// Coarsen returns the list with every box coarsened by r (rounding
// outward). The result may contain overlapping boxes even if the input
// was disjoint.
func (bl BoxList) Coarsen(r int) BoxList {
	out := make(BoxList, len(bl))
	for i, b := range bl {
		out[i] = b.Coarsen(r)
	}
	return out
}

// SubtractBox returns the region of the list not covered by b, as a
// disjoint list (assuming the input list was disjoint).
func (bl BoxList) SubtractBox(b Box) BoxList {
	var out BoxList
	for _, m := range bl {
		out = m.appendSubtract(out, b)
	}
	return out
}

// ContainsPoint reports whether any member contains p.
func (bl BoxList) ContainsPoint(p IntVect) bool {
	for _, b := range bl {
		if b.Contains(p) {
			return true
		}
	}
	return false
}

// OverlapVolumeNaive returns the number of cells in the intersection of
// the unions of a and b (both internally disjoint): the pairwise sum of
// |a_i x b_j|, by the O(n*m) double loop. It is the pairwise oracle the
// overlap kernels' tests hold OverlapScan and BoxIndex.QueryVolume to.
func OverlapVolumeNaive(a, b BoxList) int64 {
	var total int64
	for i := range a {
		for j := range b {
			total += overlap(&a[i], &b[j])
		}
	}
	return total
}

// simplifyPollPairs bounds the pair checks between two of
// SimplifyContext's polls of its context. A row scan checks fewer pairs
// than the list has boxes, so a list of n boxes is polled every
// simplifyPollPairs/n row scans: a few hundred for the lists the
// partitioners merge, every scan for the largest.
const simplifyPollPairs = 1 << 16

// SimplifyContext merges mergeable neighbours (boxes that share a full
// face and together form a box) until no merge applies. It reduces
// fragmentation after SubtractBox chains; the covered region is
// unchanged.
//
// The result is order-dependent and the order is part of the contract
// (partition fragments, and with them every golden, follow from it):
// each step merges the lexicographically first mergeable index pair
// (i, j), i < j, into position i and deletes position j. The loop
// finds that pair without rescanning from (0, 1). Call a row a settled
// when no pair (a, b), a < b, merges. Rows below next are settled
// except row cur, whose box has just changed. A merge into cur leaves
// every other box as it was, so in the settled rows only the pairs
// (a, cur), a < cur, can have become mergeable; they are tried in
// order, and a hit moves the changed box down to a. Only when none
// hits is row cur scanned, and once it settles the scan resumes at
// next, the first row never examined. That is the merge sequence of
// the restart-from-the-top loop (kept as the test oracle) at O(n)
// instead of O(n^2) pair checks per merge.
//
// A deleted row is unlinked, not moved over: after[i] is the row that
// follows row i among those still present (len(out) when none does),
// so rows keep their indices while the loop runs and one pass at the
// end closes the gaps. Row 0 is never deleted (a merge deletes the
// later row of its pair), so the walk always starts there.
//
// It polls ctx between row scans (each scan of row cur, and each
// restart of the walk over the settled rows after a merge into an
// earlier row), since a list of n boxes costs O(n^2) pair checks. It
// returns ctx.Err() once ctx is done, so a deadline stays tellable from
// a cancellation.
func (bl BoxList) SimplifyContext(ctx context.Context) (BoxList, error) {
	out := bl.Clone()
	n := int32(len(out))
	after := make([]int32, n)
	for i := range after {
		after[i] = int32(i) + 1
	}
	stride := max(1, simplifyPollPairs/max(1, len(out)))
	poll := &poller{ctx: ctx, stride: stride, left: stride}
	var next int32
	for cur := int32(0); cur < n; {
		if poll.stop() {
			return nil, ctx.Err()
		}
		before, j := cur, after[cur]
		for j < n && (planarMiss(&out[cur], &out[j]) || !tryMerge(&out[cur], &out[j])) {
			before, j = j, after[j]
		}
		if j == n { // row cur is settled
			if cur == next {
				next = after[next]
			}
			cur = next
			continue
		}
		after[before] = after[j]
		if j == next {
			next = after[j]
		}
		for a := int32(0); a != cur; {
			if planarMiss(&out[a], &out[cur]) || !tryMerge(&out[a], &out[cur]) {
				a = after[a]
				continue
			}
			for before = a; after[before] != cur; {
				before = after[before]
			}
			after[before] = after[cur]
			if cur == next {
				next = after[cur]
			}
			cur, a = a, 0 // the changed box is at a now: try (0, a) up to the row before a
			if poll.stop() {
				return nil, ctx.Err()
			}
		}
	}
	w := 0
	for i := int32(0); i < n; i = after[i] {
		out[w] = out[i]
		w++
	}
	return out[:w], nil
}

// poller polls a context every stride calls of stop.
type poller struct {
	ctx          context.Context
	stride, left int
}

// stop counts one row scan and reports, every stride scans, whether the
// context is done.
func (p *poller) stop() bool {
	if p.left--; p.left > 0 {
		return false
	}
	p.left = p.stride
	return p.ctx.Err() != nil
}

// planarMiss reports that a and b differ in both extents, so tryMerge
// would refuse them: nearly every pair SimplifyContext tries. It is
// small enough to inline into SimplifyContext's scans and reads both
// boxes through pointers.
func planarMiss(a, b *Box) bool {
	return (a.Lo[0] != b.Lo[0] || a.Hi[0] != b.Hi[0]) && (a.Lo[1] != b.Lo[1] || a.Hi[1] != b.Hi[1])
}

// tryMerge merges b into a when the two are identical or share a full
// face, and reports whether it did; the union is built only on a hit.
func tryMerge(a, b *Box) bool {
	diff := -1 // the one dimension in which the extents differ
	for d := 0; d < 2; d++ {
		if a.Lo[d] == b.Lo[d] && a.Hi[d] == b.Hi[d] {
			continue
		}
		if diff >= 0 {
			return false
		}
		diff = d
	}
	if diff < 0 {
		return true // identical boxes
	}
	if a.Hi[diff] != b.Lo[diff] && b.Hi[diff] != a.Lo[diff] {
		return false
	}
	*a = a.Union(*b)
	return true
}

// MergedAxis merges boxes that are adjacent along dimension d and have
// identical extents in every other dimension. It is O(n log n) and is
// the building block of Compact. It sorts by the other dimensions'
// extents, then by Lo along d: on the disjoint lists Compact passes,
// no two boxes share that key, so the order — and the output — does
// not depend on the sorting algorithm.
func (bl BoxList) MergedAxis(d int) BoxList {
	if len(bl) < 2 {
		return bl.Clone()
	}
	out := bl.Clone()
	slices.SortFunc(out, func(a, b Box) int {
		for e := 0; e < MaxDim; e++ {
			if e == d {
				continue
			}
			if c := cmp.Compare(a.Lo[e], b.Lo[e]); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Hi[e], b.Hi[e]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.Lo[d], b.Lo[d])
	})
	merged := out[:1]
	for _, b := range out[1:] {
		last := &merged[len(merged)-1]
		same := true
		for e := 0; e < MaxDim; e++ {
			if e != d && (last.Lo[e] != b.Lo[e] || last.Hi[e] != b.Hi[e]) {
				same = false
				break
			}
		}
		if same && last.Hi[d] == b.Lo[d] {
			last.Hi[d] = b.Hi[d]
		} else {
			merged = append(merged, b)
		}
	}
	return merged
}

// Compact reduces fragmentation of a disjoint list by repeated
// axis-aligned merging: up to four passes of MergedAxis(0) then
// MergedAxis(1), stopping after the first pass that merges nothing.
// Unlike SimplifyContext it is near-linear, suitable for lists of
// thousands of boxes; the covered region is unchanged.
//
// A list of fewer than 2^16 planar boxes (Dim 2, third component
// [0, 1)) whose corners span less than 2^16 cells per axis — every list
// the AMR driver builds — is compacted as rectangles whose sort keys
// pack the three coordinates MergedAxis sorts by and the rectangle's
// position into one uint64, instead of cloning and sorting 56-byte
// boxes through a comparison function up to eight times. On a disjoint
// list no two boxes share a key, so both forms sort into the same order
// and the output is the same, box for box.
func (bl BoxList) Compact() BoxList {
	if rs, origin, ok := packedRects(bl); ok {
		keys := make([]uint64, len(rs))
		buf := make([]rect, len(rs))
		n := len(rs)
		for pass := 0; pass < 4; pass++ {
			rs, buf = mergeRects(rs, buf, keys, 0)
			rs, buf = mergeRects(rs, buf, keys, 1)
			if len(rs) == n {
				break
			}
			n = len(rs)
		}
		out := make(BoxList, len(rs))
		for i, r := range rs {
			out[i] = NewBox2(origin[0]+int(r[0]), origin[1]+int(r[1]), origin[0]+int(r[2]), origin[1]+int(r[3]))
		}
		return out
	}
	cur := bl
	for pass := 0; pass < 4; pass++ {
		next := cur.MergedAxis(0).MergedAxis(1)
		if len(next) == len(cur) {
			return next
		}
		cur = next
	}
	return cur
}

// rect is a planar box as {x0, y0, x1, y1}, relative to an origin: the
// form Compact merges.
type rect [4]uint16

// packedRects returns bl as rects relative to the low corner of its
// bounds, or false when the list is too long, a box is not planar or
// the bounds span 2^16 cells or more on an axis.
func packedRects(bl BoxList) ([]rect, IntVect, bool) {
	if len(bl) == 0 || len(bl) >= 1<<16 {
		return nil, IntVect{}, false
	}
	lo, hi := bl[0].Lo, bl[0].Hi
	for _, b := range bl {
		if b.Dim != 2 || b.Lo[2] != 0 || b.Hi[2] != 1 {
			return nil, IntVect{}, false
		}
		lo[0], lo[1] = min(lo[0], b.Lo[0]), min(lo[1], b.Lo[1])
		hi[0], hi[1] = max(hi[0], b.Hi[0]), max(hi[1], b.Hi[1])
	}
	if hi[0]-lo[0] >= 1<<16 || hi[1]-lo[1] >= 1<<16 {
		return nil, IntVect{}, false
	}
	rs := make([]rect, len(bl))
	for i, b := range bl {
		rs[i] = rect{uint16(b.Lo[0] - lo[0]), uint16(b.Lo[1] - lo[1]), uint16(b.Hi[0] - lo[0]), uint16(b.Hi[1] - lo[1])}
	}
	return rs, lo, true
}

// mergeRects is MergedAxis(d) on rects: it sorts them by the other
// axis' extent, then by the low edge along d (a key packed with the
// rect's position, so keys are distinct and the sort needs no
// comparison function), merges runs that abut along d into dst, and
// returns dst's merged prefix and rs as the next spare buffer.
func mergeRects(rs, dst []rect, keys []uint64, d int) (merged, spare []rect) {
	e := 1 - d
	keys = keys[:len(rs)]
	for i, r := range rs {
		keys[i] = uint64(r[e])<<48 | uint64(r[e+2])<<32 | uint64(r[d])<<16 | uint64(i)
	}
	slices.Sort(keys)
	merged = dst[:0]
	for _, k := range keys {
		r := rs[k&0xffff]
		if n := len(merged); n > 0 {
			if last := &merged[n-1]; last[e] == r[e] && last[e+2] == r[e+2] && last[d+2] == r[d] {
				last[d+2] = r[d+2]
				continue
			}
		}
		merged = append(merged, r)
	}
	return merged, rs
}

// SortByLo orders the list lexicographically by Lo corner; useful for
// deterministic output. On the non-empty disjoint lists it is called
// with (SimplifyContext has just folded any duplicates) no two boxes
// share a Lo, so the comparison is a strict total order and the result
// does not depend on the sorting algorithm; boxes that do share a Lo
// end up adjacent in unspecified relative order.
func (bl BoxList) SortByLo() {
	slices.SortFunc(bl, func(a, b Box) int {
		for d := MaxDim - 1; d >= 0; d-- {
			if c := cmp.Compare(a.Lo[d], b.Lo[d]); c != 0 {
				return c
			}
		}
		return 0
	})
}
