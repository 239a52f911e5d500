package cluster

import (
	"math/rand"
	"slices"
	"testing"

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
	if eff := efficiency(tags, MakeDisjoint(patches)); eff < 0.7 {
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
	patches := MakeDisjoint(ClusterPoints(tags.points(), domain(), opts))
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

func TestMakeDisjoint(t *testing.T) {
	bl := geom.BoxList{
		geom.NewBox2(0, 0, 4, 4),
		geom.NewBox2(2, 2, 6, 6),
		geom.NewBox2(2, 2, 6, 6), // duplicate
	}
	dj := MakeDisjoint(bl)
	if !dj.Disjoint() {
		t.Fatalf("MakeDisjoint produced overlaps: %v", dj)
	}
	// Covered region: union volume = 16 + 16 - 4 = 28.
	if dj.TotalVolume() != 28 {
		t.Errorf("disjoint volume = %d, want 28", dj.TotalVolume())
	}
}

// makeDisjointReference is the old MakeDisjoint body: each box less
// every box kept before it, empties dropped at the end.
func makeDisjointReference(bl geom.BoxList) geom.BoxList {
	var out geom.BoxList
	for _, b := range bl {
		out = append(out, geom.BoxList{b}.Subtract(out)...)
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
		got, want := MakeDisjoint(slices.Clone(bl)), makeDisjointReference(slices.Clone(bl))
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
		patches := MakeDisjoint(ClusterPoints(tags.points(), domain(), DefaultOptions()))
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

func BenchmarkClusterRandomTags(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tags := tagSet{}
	for i := 0; i < 500; i++ {
		tags.Set(geom.IV2(r.Intn(128), r.Intn(128)))
	}
	dom := geom.NewBox2(0, 0, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClusterPoints(tags.points(), dom, DefaultOptions())
	}
}
