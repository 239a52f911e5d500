package geom

import (
	"slices"
	"sort"
	"sync"
)

// coverSweep is the cover engine behind BoxList's Disjoint, NestedIn
// and FirstUnnested: each box enters as +v over its y cells at its low
// x and leaves as -v at its high x, box edges are taken in x order, and
// a range-add/max segment tree over the elementary intervals between
// distinct y coordinates holds the cover of the current column of
// cells. A test is whether that cover ever exceeds a limit. n boxes
// cost O(n log n) whatever their shapes: two sorts of 2n integer keys
// and two O(log n) range adds per box. It answers yes-or-no questions
// about one cover; OverlapScan answers the owner-pair questions about
// two.
type coverSweep struct {
	// Box j spans xs[2j]..xs[2j+1] by ys[2j]..ys[2j+1] with weight v[j];
	// box[j] is its index in the tested list, or -1 for a box every
	// sweep counts.
	xs, ys []int
	v, box []int32
	// xk holds every x edge as its coordinate's rank << 32 | its
	// position in xs, sorted; yk likewise for ys, and yr[p] is the
	// elementary interval at which ys[p] starts.
	xk, yk []uint64
	yr     []int32
	ranks  []int
	// mx[p] is the largest cover in node p's range, counting the adds
	// of p and of its descendants; add[p] is what was added to the whole
	// of p's range at once. Leaves are mx[n:2n].
	mx, add []int32
	n       int
}

// coverSweeps recycles the sweeps' scratch across calls.
var coverSweeps = sync.Pool{New: func() any { return new(coverSweep) }}

// release returns s to the pool, unless it grew past 2^16 boxes: one
// huge list must not pin its scratch.
func (s *coverSweep) release() {
	if cap(s.v) <= 1<<16 {
		coverSweeps.Put(s)
	}
}

// reset empties the sweep for a new set of at most n boxes.
func (s *coverSweep) reset(n int) {
	s.xs, s.ys = slices.Grow(s.xs[:0], 2*n), slices.Grow(s.ys[:0], 2*n)
	s.v, s.box = slices.Grow(s.v[:0], n), slices.Grow(s.box[:0], n)
}

// addBox enters b with weight v; box is as in coverSweep.box. An empty box
// covers nothing and is left out.
func (s *coverSweep) addBox(b Box, v int32, box int) {
	if b.Empty() {
		return
	}
	s.xs = append(s.xs, b.Lo[0], b.Hi[0])
	s.ys = append(s.ys, b.Lo[1], b.Hi[1])
	s.v = append(s.v, v)
	s.box = append(s.box, int32(box))
}

// sortedKeys returns the positions of c in coordinate order, each as an
// order-preserving 32-bit rank of its coordinate << 32 | the position:
// the offset from the least coordinate when they span less than 2^32,
// which every level of a valid hierarchy does (corners within ±2^30),
// else the index among the distinct coordinates.
func (s *coverSweep) sortedKeys(c []int, keys []uint64) []uint64 {
	keys = slices.Grow(keys[:0], len(c))
	if len(c) == 0 {
		return keys
	}
	lo, hi := slices.Min(c), slices.Max(c)
	if uint64(hi)-uint64(lo) < 1<<32 {
		for p, x := range c {
			keys = append(keys, uint64(x-lo)<<32|uint64(p))
		}
	} else {
		s.ranks = slices.Compact(slices.Sorted(slices.Values(c)))
		for p, x := range c {
			r, _ := slices.BinarySearch(s.ranks, x)
			keys = append(keys, uint64(r)<<32|uint64(p))
		}
	}
	slices.Sort(keys)
	return keys
}

// prepare orders the x edges and maps the y edges to elementary
// intervals.
func (s *coverSweep) prepare() {
	s.xk = s.sortedKeys(s.xs, s.xk)
	s.yk = s.sortedKeys(s.ys, s.yk)
	s.yr = slices.Grow(s.yr[:0], len(s.ys))[:len(s.ys)]
	r := int32(-1)
	for i, k := range s.yk {
		if i == 0 || k>>32 != s.yk[i-1]>>32 {
			r++
		}
		s.yr[uint32(k)] = r
	}
	s.n = 1
	for s.n < int(r) {
		s.n *= 2
	}
	s.mx = slices.Grow(s.mx[:0], 2*s.n)[:2*s.n]
	s.add = slices.Grow(s.add[:0], 2*s.n)[:2*s.n]
}

// within reports whether the cover of the prepared boxes never exceeds
// limit, counting the tested boxes of index below k and every other box.
// The cover is read after all the edges at one x, so the order of edges
// that share an x does not matter. Intervals no box spans and the
// padding leaves hold 0, which no limit used here is below.
func (s *coverSweep) within(limit int32, k int) bool {
	clear(s.mx)
	clear(s.add)
	for i := 0; i < len(s.xk); {
		for x := s.xk[i] >> 32; i < len(s.xk) && s.xk[i]>>32 == x; i++ {
			p := uint32(s.xk[i])
			j := p / 2
			if int(s.box[j]) >= k {
				continue
			}
			v := s.v[j]
			if p&1 == 1 {
				v = -v
			}
			s.rangeAdd(int(s.yr[2*j]), int(s.yr[2*j+1]), v)
		}
		if s.mx[1] > limit {
			return false
		}
	}
	return true
}

// rangeAdd adds v over the elementary intervals [l, r): the bottom-up
// walk that touches O(log n) nodes, then the ancestors of the two
// boundary leaves recomputed up to the root, level by level.
func (s *coverSweep) rangeAdd(l, r int, v int32) {
	l, r = l+s.n, r+s.n
	a, b := l/2, (r-1)/2
	for ; l < r; l, r = l/2, r/2 {
		if l&1 == 1 {
			s.mx[l] += v
			s.add[l] += v
			l++
		}
		if r&1 == 1 {
			r--
			s.mx[r] += v
			s.add[r] += v
		}
	}
	for ; a >= 1; a, b = a/2, b/2 {
		s.mx[a] = max(s.mx[2*a], s.mx[2*a+1]) + s.add[a]
		if b != a {
			s.mx[b] = max(s.mx[2*b], s.mx[2*b+1]) + s.add[b]
		}
	}
}

// Disjoint reports whether no two boxes of the list share a cell: its
// cover never exceeds 1. It only compares corners, so any box may lie
// anywhere, and costs O(n log n) on n boxes of any shapes.
func (bl BoxList) Disjoint() bool {
	s := coverSweeps.Get().(*coverSweep)
	defer s.release()
	s.reset(len(bl))
	for _, b := range bl {
		s.addBox(b, 1, -1)
	}
	s.prepare()
	return s.within(1, 0)
}

// NestedIn reports whether bl is disjoint and every box of it lies in
// parent refined by ratio: whether bl's cover less the refined parent's
// never exceeds 0. parent must be disjoint, and its corners times ratio
// must fit an int, as every level of a valid hierarchy is and does
// (ratio 1 compares two lists in one index space). It costs
// O(m log m) on the m boxes of both lists.
func (bl BoxList) NestedIn(parent BoxList, ratio int) bool {
	s := coverSweeps.Get().(*coverSweep)
	defer s.release()
	return s.nests(bl, parent, ratio)
}

// FirstUnnested returns the index of the first box of a disjoint bl
// that parent, refined by ratio, does not cover, or len(bl) when it
// covers them all; parent is as for NestedIn. Adding boxes only raises
// the difference NestedIn bounds, so the first box out is the last of
// the shortest failing prefix, found by a binary search over prefixes
// of one prepared sweep: O(m log² m).
func (bl BoxList) FirstUnnested(parent BoxList, ratio int) int {
	s := coverSweeps.Get().(*coverSweep)
	defer s.release()
	s.nests(bl, parent, ratio)
	return sort.Search(len(bl), func(k int) bool { return !s.within(0, k+1) })
}

// nests prepares the sweep of bl over parent refined by ratio and
// answers NestedIn. A parent box that is empty is left out before it
// is refined, so that no product can wrap.
func (s *coverSweep) nests(bl, parent BoxList, ratio int) bool {
	s.reset(len(parent) + len(bl))
	for _, p := range parent {
		if !p.Empty() {
			s.addBox(p.Refine(ratio), -1, -1)
		}
	}
	for i, b := range bl {
		s.addBox(b, 1, i)
	}
	s.prepare()
	return s.within(0, len(bl))
}
