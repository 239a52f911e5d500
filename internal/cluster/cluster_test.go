package cluster

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"samr/internal/geom"
)

func domain() geom.Box { return geom.NewBox2(0, 0, 64, 64) }

// tagSet is a set of tagged cells: the fixtures tag overlapping blobs
// and random cells, and ClusterPoints counts a duplicate twice.
type tagSet map[geom.IntVect]bool

func (ts tagSet) Set(p geom.IntVect) { ts[p] = true }

func (ts tagSet) points() []geom.IntVect {
	pts := make([]geom.IntVect, 0, len(ts))
	for p := range ts {
		pts = append(pts, p)
	}
	return pts
}

// coverAll verifies every tagged cell is inside some patch.
func coverAll(t *testing.T, tags tagSet, patches geom.BoxList) {
	t.Helper()
	for p := range tags {
		if !patches.ContainsPoint(p) {
			t.Fatalf("tagged cell %v not covered by %v", p, patches)
		}
	}
}

func TestClusterEmpty(t *testing.T) {
	if got := ClusterPoints(nil, domain(), DefaultOptions()); got != nil {
		t.Errorf("empty tags should give nil, got %v", got)
	}
}

func TestClusterSingleBlock(t *testing.T) {
	tags := tagSet{}
	geom.NewBox2(10, 10, 14, 14).Cells(func(p geom.IntVect) { tags.Set(p) })
	patches := ClusterPoints(tags.points(), domain(), DefaultOptions())
	if len(patches) != 1 {
		t.Fatalf("dense block should cluster to one patch, got %v", patches)
	}
	if patches[0] != geom.NewBox2(10, 10, 14, 14) {
		t.Errorf("patch = %v, want exact bounding box", patches[0])
	}
	coverAll(t, tags, patches)
}

// efficiency is the quantity Options.MinEfficiency bounds: tagged cells
// over the covered volume of a disjoint patch list.
func efficiency(tags tagSet, patches geom.BoxList) float64 {
	covered := 0
	for p := range tags {
		if patches.ContainsPoint(p) {
			covered++
		}
	}
	return float64(covered) / float64(patches.TotalVolume())
}

func TestClusterTwoSeparatedBlobs(t *testing.T) {
	tags := tagSet{}
	geom.NewBox2(2, 2, 6, 6).Cells(func(p geom.IntVect) { tags.Set(p) })
	geom.NewBox2(40, 40, 44, 45).Cells(func(p geom.IntVect) { tags.Set(p) })
	patches := ClusterPoints(tags.points(), domain(), DefaultOptions())
	if len(patches) != 2 {
		t.Fatalf("two blobs should give two patches, got %v", patches)
	}
	coverAll(t, tags, patches)
	if eff := efficiency(tags, patches); eff < 0.99 {
		t.Errorf("separated dense blobs should cluster perfectly, eff=%f", eff)
	}
}

func TestClusterLShape(t *testing.T) {
	// An L of tags cannot be covered efficiently by one box; the
	// algorithm must split at the inner corner.
	tags := tagSet{}
	geom.NewBox2(0, 0, 20, 4).Cells(func(p geom.IntVect) { tags.Set(p) })
	geom.NewBox2(0, 4, 4, 20).Cells(func(p geom.IntVect) { tags.Set(p) })
	patches := ClusterPoints(tags.points(), domain(), DefaultOptions())
	coverAll(t, tags, patches)
	if eff := efficiency(tags, makeDisjoint(patches)); eff < 0.7 {
		t.Errorf("L-shape efficiency = %f, want >= 0.7", eff)
	}
	if len(patches) < 2 {
		t.Errorf("L-shape should split, got %d patches", len(patches))
	}
}

func TestClusterEfficiencyThreshold(t *testing.T) {
	// A sparse diagonal forces many splits to reach the threshold.
	tags := tagSet{}
	for i := 0; i < 32; i++ {
		tags.Set(geom.IV2(i, i))
	}
	opts := DefaultOptions()
	patches := makeDisjoint(ClusterPoints(tags.points(), domain(), opts))
	coverAll(t, tags, patches)
	// Min width 2 caps achievable efficiency at 0.5 for single cells.
	if eff := efficiency(tags, patches); eff < 0.2 {
		t.Errorf("diagonal efficiency = %f too low", eff)
	}
}

func TestClusterMinWidth(t *testing.T) {
	tags := tagSet{}
	tags.Set(geom.IV2(5, 5)) // single tag
	patches := ClusterPoints(tags.points(), domain(), DefaultOptions())
	if len(patches) != 1 {
		t.Fatalf("patches = %v", patches)
	}
	if patches[0].Size(0) < 2 || patches[0].Size(1) < 2 {
		t.Errorf("patch %v violates min width 2", patches[0])
	}
	coverAll(t, tags, patches)
}

func TestClusterMinWidthAtDomainCorner(t *testing.T) {
	tags := tagSet{}
	tags.Set(geom.IV2(63, 63)) // domain corner: growth must go inward
	patches := ClusterPoints(tags.points(), domain(), DefaultOptions())
	if len(patches) != 1 {
		t.Fatalf("patches = %v", patches)
	}
	p := patches[0]
	if !domain().ContainsBox(p) {
		t.Errorf("patch %v escapes domain", p)
	}
	if p.Size(0) < 2 || p.Size(1) < 2 {
		t.Errorf("patch %v violates min width", p)
	}
}

func TestClusterStaysInDomain(t *testing.T) {
	tags := tagSet{}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		tags.Set(geom.IV2(r.Intn(64), r.Intn(64)))
	}
	patches := ClusterPoints(tags.points(), domain(), DefaultOptions())
	for _, p := range patches {
		if !domain().ContainsBox(p) {
			t.Errorf("patch %v escapes domain", p)
		}
	}
	coverAll(t, tags, patches)
}

func TestClusterMaxWidth(t *testing.T) {
	tags := tagSet{}
	geom.NewBox2(0, 0, 40, 40).Cells(func(p geom.IntVect) { tags.Set(p) })
	opts := DefaultOptions()
	opts.MaxWidth = 16
	patches := ClusterPoints(tags.points(), domain(), opts)
	for _, p := range patches {
		if p.Size(0) > 16+1 || p.Size(1) > 16+1 {
			t.Errorf("patch %v exceeds MaxWidth", p)
		}
	}
	coverAll(t, tags, patches)
}

// makeDisjoint is MakeDisjoint under a context that is never done.
func makeDisjoint(bl geom.BoxList) geom.BoxList {
	out, _ := MakeDisjoint(context.Background(), bl)
	return out
}

func TestMakeDisjoint(t *testing.T) {
	bl := geom.BoxList{
		geom.NewBox2(0, 0, 4, 4),
		geom.NewBox2(2, 2, 6, 6),
		geom.NewBox2(2, 2, 6, 6), // duplicate
	}
	dj := makeDisjoint(bl)
	if !dj.Disjoint() {
		t.Fatalf("MakeDisjoint produced overlaps: %v", dj)
	}
	// Covered region: union volume = 16 + 16 - 4 = 28.
	if dj.TotalVolume() != 28 {
		t.Errorf("disjoint volume = %d, want 28", dj.TotalVolume())
	}
}

// TestMakeDisjointStopsWhenDone: a done context stops MakeDisjoint
// with the context's own error and no list.
func TestMakeDisjointStopsWhenDone(t *testing.T) {
	bl := geom.BoxList{geom.NewBox2(0, 0, 4, 4), geom.NewBox2(2, 2, 6, 6)}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if got, err := MakeDisjoint(expired, bl); got != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("MakeDisjoint under an expired deadline = (%v, %v), want (nil, %v)", got, err, context.DeadlineExceeded)
	}
}

// makeDisjointReference is the old MakeDisjoint body: each box less
// every box kept before it, empties dropped at the end.
func makeDisjointReference(bl geom.BoxList) geom.BoxList {
	var out geom.BoxList
	for _, b := range bl {
		pieces := geom.BoxList{b}
		for _, o := range out {
			pieces = pieces.SubtractBox(o)
		}
		out = append(out, pieces...)
	}
	kept := out[:0]
	for _, b := range out {
		if !b.Empty() {
			kept = append(kept, b)
		}
	}
	return kept
}

// TestMakeDisjointMatchesReference holds MakeDisjoint, which subtracts
// only the kept boxes that meet a box, to the reference that subtracts
// them all, box for box and in order, on random lists with overlaps,
// duplicates and empty boxes.
func TestMakeDisjointMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 2000; trial++ {
		var bl geom.BoxList
		for i, n := 0, r.Intn(24); i < n; i++ {
			switch {
			case i > 0 && r.Intn(6) == 0:
				bl = append(bl, bl[r.Intn(i)]) // duplicate
			case r.Intn(8) == 0:
				x, y := r.Intn(32), r.Intn(32)
				bl = append(bl, geom.NewBox2(x, y, x-r.Intn(3), y+r.Intn(4))) // empty
			default:
				x, y := r.Intn(32), r.Intn(32)
				bl = append(bl, geom.NewBox2(x, y, x+1+r.Intn(12), y+1+r.Intn(12)))
			}
		}
		got, want := makeDisjoint(slices.Clone(bl)), makeDisjointReference(slices.Clone(bl))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: MakeDisjoint(%v)\n = %v\nwant %v", trial, bl, got, want)
		}
	}
}

func TestClusterDisjointOutputAfterMakeDisjoint(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tags := tagSet{}
		// Random blobs.
		for blob := 0; blob < 4; blob++ {
			cx, cy := r.Intn(56), r.Intn(56)
			geom.NewBox2(cx, cy, cx+2+r.Intn(6), cy+2+r.Intn(6)).
				Cells(func(p geom.IntVect) { tags.Set(p) })
		}
		patches := makeDisjoint(ClusterPoints(tags.points(), domain(), DefaultOptions()))
		if !patches.Disjoint() {
			t.Fatalf("trial %d: overlapping patches %v", trial, patches)
		}
		coverAll(t, tags, patches)
	}
}

func TestSignatureHoleSplitPreferred(t *testing.T) {
	// Two rows of tags separated by an empty band: the split must land
	// in the band, giving exactly two perfectly efficient patches.
	tags := tagSet{}
	geom.NewBox2(0, 0, 16, 3).Cells(func(p geom.IntVect) { tags.Set(p) })
	geom.NewBox2(0, 13, 16, 16).Cells(func(p geom.IntVect) { tags.Set(p) })
	patches := ClusterPoints(tags.points(), domain(), DefaultOptions())
	if len(patches) != 2 {
		t.Fatalf("want 2 patches, got %v", patches)
	}
	if eff := efficiency(tags, patches); eff < 0.99 {
		t.Errorf("hole split should be perfect, eff=%f", eff)
	}
}

// clusterPointsReference is ClusterPoints' body before it moved to
// compact points partitioned in place: the recursion over
// []geom.IntVect, a fresh histogram per signature and a fresh slice for
// every upper half. TestClusterPointsMatchesReference and the trace-tag
// test in tags_test.go hold ClusterPoints to it box for box.
func clusterPointsReference(pts []geom.IntVect, domain geom.Box, opts Options) geom.BoxList {
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
	referenceRecurse(in, domain, opts, &out, 0)
	return out
}

func referenceRecurse(pts []geom.IntVect, domain geom.Box, opts Options, out *geom.BoxList, depth int) {
	if len(pts) == 0 {
		return
	}
	b := referenceBounds(pts)
	eff := float64(len(pts)) / float64(b.Volume())
	tooWide := opts.MaxWidth > 0 && (b.Size(0) > opts.MaxWidth || b.Size(1) > opts.MaxWidth)
	splittable := b.Size(0) >= 2*opts.MinWidth || b.Size(1) >= 2*opts.MinWidth
	if depth >= maxClusterDepth || (!tooWide && (eff >= opts.MinEfficiency || !splittable)) {
		*out = append(*out, enforceMinWidth(b, domain, opts.MinWidth))
		return
	}
	d, at, ok := referenceSplit(pts, b, opts.MinWidth)
	if !ok {
		*out = append(*out, enforceMinWidth(b, domain, opts.MinWidth))
		return
	}
	lo := pts[:0:len(pts)]
	var hi []geom.IntVect
	for _, p := range pts {
		if p[d] < at {
			lo = append(lo, p)
		} else {
			hi = append(hi, p)
		}
	}
	referenceRecurse(lo, domain, opts, out, depth+1)
	referenceRecurse(hi, domain, opts, out, depth+1)
}

func referenceBounds(pts []geom.IntVect) geom.Box {
	lo, hi := pts[0], pts[0]
	for _, p := range pts[1:] {
		lo = lo.Min(p)
		hi = hi.Max(p)
	}
	return geom.NewBox2(lo[0], lo[1], hi[0]+1, hi[1]+1)
}

func referenceSignature(pts []geom.IntVect, b geom.Box, d int) []int {
	sig := make([]int, b.Size(d))
	for _, p := range pts {
		sig[p[d]-b.Lo[d]]++
	}
	return sig
}

func referenceSplit(pts []geom.IntVect, b geom.Box, minW int) (dim, at int, ok bool) {
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
		sig := referenceSignature(pts, b, d)
		for i := minW; i <= len(sig)-minW; i++ {
			if i < len(sig) && sig[i] == 0 {
				holes = append(holes, cut{d, b.Lo[d] + i})
			}
		}
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

// TestClusterPointsMatchesReference holds ClusterPoints to
// clusterPointsReference on random tag sets: scattered cells, blobs,
// duplicates, points outside the domain, negative corners and a range
// of options, in a random order each time.
func TestClusterPointsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		x0, y0 := r.Intn(200)-100, r.Intn(200)-100
		dom := geom.NewBox2(x0, y0, x0+8+r.Intn(120), y0+8+r.Intn(120))
		opts := Options{
			MinEfficiency: []float64{0.5, 0.7, 0.9}[r.Intn(3)],
			MinWidth:      1 + r.Intn(4),
		}
		if r.Intn(3) == 0 {
			opts.MaxWidth = opts.MinWidth + r.Intn(24)
		}
		var pts []geom.IntVect
		for blob := r.Intn(5); blob >= 0; blob-- {
			cx, cy := dom.Lo[0]+r.Intn(dom.Size(0)), dom.Lo[1]+r.Intn(dom.Size(1))
			rad := 1 + r.Intn(12)
			for n := r.Intn(200); n > 0; n-- {
				// Some land outside the domain, and some repeat.
				pts = append(pts, geom.IV2(cx+r.Intn(2*rad+1)-rad, cy+r.Intn(2*rad+1)-rad))
			}
		}
		for n := r.Intn(40); n > 0; n-- {
			pts = append(pts, geom.IV2(dom.Lo[0]+r.Intn(dom.Size(0)), dom.Lo[1]+r.Intn(dom.Size(1))))
		}
		r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		want := clusterPointsReference(slices.Clone(pts), dom, opts)
		if got := ClusterPoints(pts, dom, opts); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d points, domain %v, %+v):\n got %v\nwant %v", trial, len(pts), dom, opts, got, want)
		}
	}
}

func BenchmarkClusterRandomTags(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tags := tagSet{}
	for i := 0; i < 500; i++ {
		tags.Set(geom.IV2(r.Intn(128), r.Intn(128)))
	}
	pts := tags.points()
	dom := geom.NewBox2(0, 0, 128, 128)
	b.ReportAllocs()
	for b.Loop() {
		ClusterPoints(pts, dom, DefaultOptions())
	}
}
