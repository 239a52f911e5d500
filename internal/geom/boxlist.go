package geom

import (
	"cmp"
	"slices"
	"sort"
)

// BoxList is an ordered collection of boxes on one refinement level. The
// boxes of a well-formed SAMR level are pairwise disjoint, but BoxList
// itself does not enforce disjointness; use Disjoint to check and
// Simplify to canonicalize.
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

// Disjoint reports whether no two boxes in the list overlap.
func (bl BoxList) Disjoint() bool {
	for i := range bl {
		for j := i + 1; j < len(bl); j++ {
			if bl[i].Intersects(bl[j]) {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the list.
func (bl BoxList) Clone() BoxList {
	out := make(BoxList, len(bl))
	copy(out, bl)
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
		out = append(out, m.Subtract(b)...)
	}
	return out
}

// Subtract returns the region of bl not covered by any box of other.
func (bl BoxList) Subtract(other BoxList) BoxList {
	cur := bl.Clone()
	for _, b := range other {
		cur = cur.SubtractBox(b)
	}
	return cur
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

// CoversBox reports whether b is entirely covered by the union of the
// list members.
func (bl BoxList) CoversBox(b Box) bool {
	rem := BoxList{b}
	for _, m := range bl {
		rem = rem.SubtractBox(m)
		if len(rem) == 0 {
			return true
		}
	}
	return len(rem) == 0 || rem.TotalVolume() == 0
}

// OverlapVolume returns the number of cells in the intersection of the
// unions of a and b (both internally disjoint): the pairwise sum of
// |a_i x b_j|. Small inputs use the direct double loop; larger ones
// build a BoxIndex over the longer list and sum QueryVolume over the
// shorter, which is near-linear instead of O(n*m).
//
// This is the workhorse of the paper's data-migration penalty
// (section 4.4): beta_m sums |G_{t-1}^{l,i} x G_t^{l,j}| over all patch
// pairs of a level.
func OverlapVolume(a, b BoxList) int64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a)*len(b) <= 64 {
		return OverlapVolumeNaive(a, b)
	}
	if len(a) < len(b) {
		a, b = b, a
	}
	ix := NewBoxIndex(a)
	var total int64
	for _, box := range b {
		total += ix.QueryVolume(box)
	}
	return total
}

// OverlapVolumeNaive is the O(n*m) reference implementation of
// OverlapVolume, kept as a test oracle.
func OverlapVolumeNaive(a, b BoxList) int64 {
	var total int64
	for _, x := range a {
		for _, y := range b {
			total += x.Intersect(y).Volume()
		}
	}
	return total
}

// Simplify merges mergeable neighbours (boxes that share a full face and
// together form a box) until no merge applies. It reduces fragmentation
// after Subtract chains; the covered region is unchanged.
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
func (bl BoxList) Simplify() BoxList {
	out := bl.Clone()
	next := 0
	for cur := 0; cur < len(out); {
		j := cur + 1
		for ; j < len(out); j++ {
			if m, ok := tryMerge(out[cur], out[j]); ok {
				out[cur] = m
				break
			}
		}
		if j == len(out) { // row cur is settled
			if cur == next {
				next++
			}
			cur = next
			continue
		}
		out = slices.Delete(out, j, j+1)
		if j < next {
			next--
		}
		for a := 0; a < cur; a++ {
			if m, ok := tryMerge(out[a], out[cur]); ok {
				out[a] = m
				out = slices.Delete(out, cur, cur+1)
				if cur < next {
					next--
				}
				cur, a = a, -1 // the changed box is at a now: try (0, a) .. (a-1, a)
			}
		}
	}
	return out
}

func tryMerge(a, b Box) (Box, bool) {
	diff := -1
	for d := 0; d < a.Dim; d++ {
		if a.Lo[d] == b.Lo[d] && a.Hi[d] == b.Hi[d] {
			continue
		}
		if diff >= 0 {
			return Box{}, false
		}
		diff = d
	}
	if diff < 0 {
		return a, true // identical boxes
	}
	if a.Hi[diff] == b.Lo[diff] || b.Hi[diff] == a.Lo[diff] {
		return a.Union(b), true
	}
	return Box{}, false
}

// MergedAxis merges boxes that are adjacent along dimension d and have
// identical extents in every other dimension. It is O(n log n) and is
// the building block of Compact.
func (bl BoxList) MergedAxis(d int) BoxList {
	if len(bl) < 2 {
		return bl.Clone()
	}
	out := bl.Clone()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for e := 0; e < MaxDim; e++ {
			if e == d {
				continue
			}
			if a.Lo[e] != b.Lo[e] {
				return a.Lo[e] < b.Lo[e]
			}
			if a.Hi[e] != b.Hi[e] {
				return a.Hi[e] < b.Hi[e]
			}
		}
		return a.Lo[d] < b.Lo[d]
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
// axis-aligned merging. Unlike Simplify it is near-linear, suitable for
// lists of thousands of boxes; the covered region is unchanged.
func (bl BoxList) Compact() BoxList {
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

// SortByLo orders the list lexicographically by Lo corner; useful for
// deterministic output. On the non-empty disjoint lists it is called
// with (Simplify has just folded any duplicates) no two boxes share a
// Lo, so the comparison is a strict total order and the result does not
// depend on the sorting algorithm; boxes that do share a Lo end up
// adjacent in unspecified relative order.
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
