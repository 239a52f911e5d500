// Package cluster implements the Berger–Rigoutsos point-clustering
// algorithm used during SAMR regridding: given the set of cells tagged
// for refinement on a level, produce a small set of rectangular patches
// that cover every tagged cell with at least a prescribed efficiency
// (fraction of patch cells that are tagged).
//
// The algorithm recursively bisects the tag bounding box, preferring
// splits at signature holes (rows/columns with no tags), then at the
// strongest inflection of the signature's discrete Laplacian, and
// falling back to the midpoint of the longest dimension.
package cluster

import (
	"context"
	"math"

	"samr/internal/geom"
)

// Options controls clustering behaviour.
type Options struct {
	// MinEfficiency is the minimum acceptable ratio of tagged cells to
	// patch volume before a patch is split further. The classic
	// Berger–Rigoutsos default is 0.7–0.8.
	MinEfficiency float64
	// MinWidth is the smallest allowed patch extent in any dimension
	// (the paper's "granularity (minimum block dimension) is 2").
	MinWidth int
	// MaxWidth, when positive, forces patches wider than this to split
	// even if efficient; it bounds per-patch work for load balancing.
	MaxWidth int
}

// DefaultOptions mirrors the paper's experimental setup: minimum block
// dimension 2 with the customary 0.7 efficiency threshold.
func DefaultOptions() Options {
	return Options{MinEfficiency: 0.7, MinWidth: 2, MaxWidth: 0}
}

// point is a tagged cell: 8 bytes instead of a 24-byte geom.IntVect,
// so the recursion's partitioning and histogram passes stream a third
// of the memory.
type point = [2]int32

// clusterer carries the state one ClusterPoints call shares across its
// recursion: the options, the histogram buffers every split reuses,
// and the output.
type clusterer struct {
	domain geom.Box
	opts   Options
	sig    []int // per-plane histogram of the box being split
	lap    []int // its discrete Laplacian
	out    geom.BoxList
}

// ClusterPoints covers the tagged cells pts with patches meeting opts.
// Every returned box is inside domain and has extents >= MinWidth
// (unless the domain itself is narrower); MakeDisjoint restores
// pairwise disjointness where MinWidth growth overlapped two. A
// duplicated point weighs double in the efficiency metric (the AMR
// driver's per-patch tag scan never produces any, since patch interiors
// are disjoint). The output is independent of the order of pts: every
// splitting decision is made on bounding boxes and per-plane histograms
// of the point set, which is what lets the recursion partition its
// points in place — in pts itself, whose contents ClusterPoints
// overwrites. Points outside domain are dropped.
func ClusterPoints(pts [][2]int32, domain geom.Box, opts Options) geom.BoxList {
	in, s := pts[:0], emptySpan
	for _, p := range pts {
		if domain.Contains(geom.IV2(int(p[0]), int(p[1]))) {
			in = append(in, p)
			s.add(p)
		}
	}
	c := clusterer{domain: domain, opts: opts}
	c.recurse(in, s, 0)
	return c.out
}

// span is the bounding box of a point set in the clusterer's frame,
// both corners inclusive.
type span struct{ lo, hi point }

// emptySpan covers no point.
var emptySpan = span{point{math.MaxInt32, math.MaxInt32}, point{math.MinInt32, math.MinInt32}}

// add grows s to cover p.
func (s *span) add(p point) {
	s.lo = point{min(s.lo[0], p[0]), min(s.lo[1], p[1])}
	s.hi = point{max(s.hi[0], p[0]), max(s.hi[1], p[1])}
}

// maxClusterDepth bounds recursion; at 64 the box would have been
// bisected far below any practical patch size.
const maxClusterDepth = 64

// recurse clusters pts, whose exact bounds are s.
func (c *clusterer) recurse(pts []point, s span, depth int) {
	if len(pts) == 0 {
		return
	}
	// The working box is the exact bounding box of the points.
	b := geom.NewBox2(int(s.lo[0]), int(s.lo[1]), int(s.hi[0])+1, int(s.hi[1])+1)
	opts := c.opts
	eff := float64(len(pts)) / float64(b.Volume())
	tooWide := opts.MaxWidth > 0 && (b.Size(0) > opts.MaxWidth || b.Size(1) > opts.MaxWidth)
	splittable := b.Size(0) >= 2*opts.MinWidth || b.Size(1) >= 2*opts.MinWidth
	if depth >= maxClusterDepth || (!tooWide && (eff >= opts.MinEfficiency || !splittable)) {
		c.out = append(c.out, enforceMinWidth(b, c.domain, opts.MinWidth))
		return
	}
	d, at, ok := c.split(pts, b)
	if !ok {
		c.out = append(c.out, enforceMinWidth(b, c.domain, opts.MinWidth))
		return
	}
	// Partition the points in place around the cut plane, those below
	// it first, taking each half's bounds on the way.
	cut := int32(at)
	n := 0
	below, above := emptySpan, emptySpan
	for i, p := range pts {
		if p[d] < cut {
			pts[n], pts[i] = pts[i], pts[n]
			n++
			below.add(p)
		} else {
			above.add(p)
		}
	}
	c.recurse(pts[:n], below, depth+1)
	c.recurse(pts[n:], above, depth+1)
}

// signature returns the per-plane histogram of the points along dim d
// relative to box b, in the clusterer's reused buffer. Points must lie
// inside b.
func (c *clusterer) signature(pts []point, b geom.Box, d int) []int {
	n := b.Size(d)
	if cap(c.sig) < n {
		c.sig = make([]int, n)
	}
	sig := c.sig[:n]
	clear(sig)
	off := b.Lo[d]
	for _, p := range pts {
		sig[int(p[d])-off]++
	}
	return sig
}

// split chooses a bisection plane for the points in b: first a signature
// hole, then the strongest Laplacian inflection, then the
// longest-dimension midpoint. Both halves are kept at least MinWidth
// wide. It returns the dimension and absolute cut coordinate.
func (c *clusterer) split(pts []point, b geom.Box) (dim, at int, ok bool) {
	type cut struct {
		d, at int
	}
	minW := c.opts.MinWidth
	// The hole closest to the box centre (best balance), the first
	// found on a tie.
	var bestHole cut
	bestHoleDist := -1
	var bestInf cut
	bestInfMag := -1
	for d := 0; d < 2; d++ {
		if b.Size(d) < 2*minW {
			continue
		}
		sig := c.signature(pts, b, d)
		mid := (b.Lo[d] + b.Hi[d]) / 2
		// Holes: zero planes strictly inside the feasible cut range.
		for i := minW; i <= len(sig)-minW; i++ {
			if i < len(sig) && sig[i] == 0 {
				at := b.Lo[d] + i
				if dist := absInt(at - mid); bestHoleDist < 0 || dist < bestHoleDist {
					bestHoleDist, bestHole = dist, cut{d, at}
				}
			}
		}
		// Laplacian inflections: sign change of the second difference.
		if cap(c.lap) < len(sig) {
			c.lap = make([]int, len(sig))
		}
		lap := c.lap[:len(sig)]
		lap[0], lap[len(lap)-1] = 0, 0
		for i := 1; i < len(sig)-1; i++ {
			lap[i] = sig[i-1] - 2*sig[i] + sig[i+1]
		}
		for i := minW; i <= len(sig)-minW && i < len(sig)-1; i++ {
			if lap[i-1]*lap[i] < 0 {
				mag := absInt(lap[i-1] - lap[i])
				if mag > bestInfMag {
					bestInfMag = mag
					bestInf = cut{d, b.Lo[d] + i}
				}
			}
		}
	}
	feasible := func(c cut) bool {
		return c.at-b.Lo[c.d] >= minW && b.Hi[c.d]-c.at >= minW
	}
	if bestHoleDist >= 0 && feasible(bestHole) {
		return bestHole.d, bestHole.at, true
	}
	if bestInfMag >= 0 && feasible(bestInf) {
		return bestInf.d, bestInf.at, true
	}
	// Midpoint of the longest splittable dimension.
	d := b.LongestDim()
	if b.Size(d) < 2*minW {
		d = 1 - d
		if b.Size(d) < 2*minW {
			return 0, 0, false
		}
	}
	mc := cut{d, (b.Lo[d] + b.Hi[d]) / 2}
	if !feasible(mc) {
		return 0, 0, false
	}
	return mc.d, mc.at, true
}

// enforceMinWidth grows b to at least minW cells per dimension, staying
// inside domain where possible.
func enforceMinWidth(b, domain geom.Box, minW int) geom.Box {
	for d := 0; d < 2; d++ {
		for b.Size(d) < minW {
			if b.Hi[d] < domain.Hi[d] {
				b.Hi[d]++
			} else if b.Lo[d] > domain.Lo[d] {
				b.Lo[d]--
			} else {
				break
			}
		}
	}
	return b.Intersect(domain)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// MakeDisjoint rewrites the list so no two boxes overlap, preserving the
// covered region: each non-empty box, less the boxes kept before it.
// Berger–Rigoutsos recursion on disjoint halves already yields disjoint
// boxes, but enforceMinWidth growth can introduce small overlaps;
// regridding calls this to restore the level invariant.
//
// Only the kept boxes that meet a box are subtracted from it:
// subtracting one that misses it returns every piece unchanged, so the
// output is that of subtracting them all, box for box and in order.
// Finding them is a scan over every kept box, quadratic in the list's
// length, so ctx is polled before each box; once it is done the call
// returns ctx.Err().
func MakeDisjoint(ctx context.Context, bl geom.BoxList) (geom.BoxList, error) {
	var out geom.BoxList
	for _, b := range bl {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if b.Empty() {
			continue
		}
		pieces := geom.BoxList{b}
		for _, o := range out {
			if o.Intersects(b) {
				pieces = pieces.SubtractBox(o)
			}
		}
		out = append(out, pieces...)
	}
	return out, nil
}
