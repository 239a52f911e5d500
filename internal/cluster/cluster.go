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

// signature returns the per-plane histogram of the points along dim d
// relative to box b. Points must lie inside b.
func signature(pts []geom.IntVect, b geom.Box, d int) []int {
	sig := make([]int, b.Size(d))
	for _, p := range pts {
		sig[p[d]-b.Lo[d]]++
	}
	return sig
}

// ClusterPoints covers the tagged cells pts with patches meeting opts.
// Every returned box is inside domain and has extents >= MinWidth
// (unless the domain itself is narrower); MakeDisjoint restores
// pairwise disjointness where MinWidth growth overlapped two. A
// duplicated point weighs double in the efficiency metric (the AMR
// driver's per-patch tag scan never produces any, since patch interiors
// are disjoint). The output is independent of the order of pts: every
// splitting decision is made on bounding boxes and per-plane histograms
// of the point set.
func ClusterPoints(pts []geom.IntVect, domain geom.Box, opts Options) geom.BoxList {
	in := pts[:0:0]
	for _, p := range pts {
		if domain.Contains(p) {
			in = append(in, p)
		}
	}
	if len(in) == 0 {
		return nil
	}
	var out geom.BoxList
	recurse(in, domain, opts, &out, 0)
	return out
}

// maxClusterDepth bounds recursion; at 64 the box would have been
// bisected far below any practical patch size.
const maxClusterDepth = 64

func recurse(pts []geom.IntVect, domain geom.Box, opts Options, out *geom.BoxList, depth int) {
	if len(pts) == 0 {
		return
	}
	// The working box is the exact bounding box of the points.
	b := boundsOf(pts)
	eff := float64(len(pts)) / float64(b.Volume())
	tooWide := opts.MaxWidth > 0 && (b.Size(0) > opts.MaxWidth || b.Size(1) > opts.MaxWidth)
	splittable := b.Size(0) >= 2*opts.MinWidth || b.Size(1) >= 2*opts.MinWidth
	if depth >= maxClusterDepth || (!tooWide && (eff >= opts.MinEfficiency || !splittable)) {
		*out = append(*out, enforceMinWidth(b, domain, opts.MinWidth))
		return
	}
	d, at, ok := split(pts, b, opts.MinWidth)
	if !ok {
		*out = append(*out, enforceMinWidth(b, domain, opts.MinWidth))
		return
	}
	// Partition the points in place around the cut plane.
	lo := pts[:0:len(pts)]
	var hi []geom.IntVect
	for _, p := range pts {
		if p[d] < at {
			lo = append(lo, p)
		} else {
			hi = append(hi, p)
		}
	}
	recurse(lo, domain, opts, out, depth+1)
	recurse(hi, domain, opts, out, depth+1)
}

// boundsOf returns the bounding box of a non-empty point set.
func boundsOf(pts []geom.IntVect) geom.Box {
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo = lo.Min(p)
		hi = hi.Max(p)
	}
	return geom.NewBox2(lo[0], lo[1], hi[0]+1, hi[1]+1)
}

// split chooses a bisection plane for the points in b: first a signature
// hole, then the strongest Laplacian inflection, then the
// longest-dimension midpoint. Both halves are kept at least minW wide.
// It returns the dimension and absolute cut coordinate.
func split(pts []geom.IntVect, b geom.Box, minW int) (dim, at int, ok bool) {
	type cut struct {
		d, at int
	}
	var holes []cut
	var bestInf cut
	bestInfMag := -1
	for d := 0; d < 2; d++ {
		if b.Size(d) < 2*minW {
			continue
		}
		sig := signature(pts, b, d)
		// Holes: zero planes strictly inside the feasible cut range.
		for i := minW; i <= len(sig)-minW; i++ {
			if i < len(sig) && sig[i] == 0 {
				holes = append(holes, cut{d, b.Lo[d] + i})
			}
		}
		// Laplacian inflections: sign change of the second difference.
		lap := make([]int, len(sig))
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
	// Prefer the hole closest to the box centre (best balance).
	if len(holes) > 0 {
		best := holes[0]
		bestDist := 1 << 30
		for _, h := range holes {
			mid := (b.Lo[h.d] + b.Hi[h.d]) / 2
			if d := absInt(h.at - mid); d < bestDist {
				bestDist, best = d, h
			}
		}
		if feasible(best) {
			return best.d, best.at, true
		}
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
	c := cut{d, (b.Lo[d] + b.Hi[d]) / 2}
	if !feasible(c) {
		return 0, 0, false
	}
	return c.d, c.at, true
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
func MakeDisjoint(bl geom.BoxList) geom.BoxList {
	var out geom.BoxList
	for _, b := range bl {
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
	return out
}
