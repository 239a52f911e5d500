package grid

import (
	"math/rand"
	"testing"

	"samr/internal/geom"
)

func base() geom.Box { return geom.NewBox2(0, 0, 32, 32) }

// twoLevel returns a hierarchy with one refined patch.
func twoLevel() *Hierarchy {
	h := NewHierarchy(base(), 2)
	h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{geom.NewBox2(8, 8, 24, 24)}})
	return h
}

func TestNewHierarchy(t *testing.T) {
	h := NewHierarchy(base(), 2)
	if h.NumLevels() != 1 {
		t.Fatalf("NumLevels = %d", h.NumLevels())
	}
	if h.NumPoints() != 32*32 {
		t.Errorf("NumPoints = %d", h.NumPoints())
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNumPointsAndWorkload(t *testing.T) {
	h := twoLevel()
	wantPts := int64(32*32 + 16*16)
	if h.NumPoints() != wantPts {
		t.Errorf("NumPoints = %d, want %d", h.NumPoints(), wantPts)
	}
	// Level 1 does 2 local steps per coarse step.
	wantW := int64(32*32 + 2*16*16)
	if h.Workload() != wantW {
		t.Errorf("Workload = %d, want %d", h.Workload(), wantW)
	}
}

func TestStepFactor(t *testing.T) {
	h := NewHierarchy(base(), 2)
	for l, want := range []int64{1, 2, 4, 8, 16} {
		if got := h.StepFactor(l); got != want {
			t.Errorf("StepFactor(%d) = %d, want %d", l, got, want)
		}
	}
	h4 := NewHierarchy(base(), 4)
	if h4.StepFactor(2) != 16 {
		t.Errorf("ratio-4 StepFactor(2) = %d", h4.StepFactor(2))
	}
}

func TestLevelDomain(t *testing.T) {
	h := NewHierarchy(base(), 2)
	if got := h.LevelDomain(2); got != geom.NewBox2(0, 0, 128, 128) {
		t.Errorf("LevelDomain(2) = %v", got)
	}
}

func TestFootprint(t *testing.T) {
	h := twoLevel()
	fp := h.Footprint(1)
	if len(fp) != 1 || fp[0] != geom.NewBox2(4, 4, 12, 12) {
		t.Errorf("Footprint = %v", fp)
	}
}

func TestValidateCatchesBadNesting(t *testing.T) {
	h := NewHierarchy(base(), 2)
	// Level-1 box escaping the refined level-0 domain (level 0 covers
	// everything, so nesting within level 0 always holds; check domain).
	h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{geom.NewBox2(60, 60, 70, 70)}})
	if err := h.Validate(); err == nil {
		t.Error("Validate should reject out-of-domain level-1 box")
	}

	h2 := twoLevel()
	// Level 2 not nested inside level 1's footprint.
	h2.Levels = append(h2.Levels, Level{Boxes: geom.BoxList{geom.NewBox2(0, 0, 8, 8)}})
	if err := h2.Validate(); err == nil {
		t.Error("Validate should reject non-nested level 2")
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	h := NewHierarchy(base(), 2)
	h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{
		geom.NewBox2(0, 0, 10, 10), geom.NewBox2(5, 5, 15, 15),
	}})
	if err := h.Validate(); err == nil {
		t.Error("Validate should reject overlapping boxes in a level")
	}
}

// TestValidateRefusesNonPlanar: the same corners under any Dim but 2 —
// on the domain, or on one refined box — are not a hierarchy.
func TestValidateRefusesNonPlanar(t *testing.T) {
	for _, dim := range []int{0, 1, 3} {
		h := twoLevel()
		h.Levels[1].Boxes[0].Dim = dim
		if err := h.Validate(); err == nil {
			t.Errorf("Validate accepted a dim-%d box on level 1", dim)
		}
		h = twoLevel()
		h.Domain.Dim = dim
		h.Levels[0].Boxes[0].Dim = dim
		if err := h.Validate(); err == nil {
			t.Errorf("Validate accepted a dim-%d domain", dim)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	h := twoLevel()
	c := h.Clone()
	c.Levels[1].Boxes[0] = geom.NewBox2(0, 0, 2, 2)
	if h.Levels[1].Boxes[0] == c.Levels[1].Boxes[0] {
		t.Error("Clone shares box storage with original")
	}
}

// TestOverlapPointsIdentical: a hierarchy shares every point of every
// level with itself.
func TestOverlapPointsIdentical(t *testing.T) {
	h := twoLevel()
	if got, want := TotalOverlap(h, h), int64(32*32+16*16); got != want || want != h.NumPoints() {
		t.Errorf("TotalOverlap self = %d, want %d (NumPoints %d)", got, want, h.NumPoints())
	}
}

func TestOverlapPointsShifted(t *testing.T) {
	a := twoLevel()
	b := twoLevel()
	// Shift level 1 by 8 fine cells: 16x16 overlapping region shrinks to 8x16.
	b.Levels[1].Boxes[0] = geom.NewBox2(16, 8, 32, 24)
	if got, want := TotalOverlap(a, b), int64(32*32+8*16); got != want {
		t.Errorf("shifted overlap = %d, want %d", got, want)
	}
}

// TestOverlapPointsLevelCountMismatch: a level only one hierarchy has
// shares nothing, whichever side has it.
func TestOverlapPointsLevelCountMismatch(t *testing.T) {
	a := twoLevel()
	b := NewHierarchy(base(), 2)
	if ab, ba := TotalOverlap(a, b), TotalOverlap(b, a); ab != 32*32 || ba != 32*32 {
		t.Errorf("mismatched-levels overlap = %d and %d, want %d", ab, ba, 32*32)
	}
}

// TestSurfacePoints pins the per-level boundary surface of the
// two-level fixture, the raw material of the communication penalty.
func TestSurfacePoints(t *testing.T) {
	h := twoLevel()
	if s0, s1 := h.Levels[0].Boxes.TotalSurface(), h.Levels[1].Boxes.TotalSurface(); s0 != 4*32 || s1 != 4*16 {
		t.Errorf("surface per level = %d, %d", s0, s1)
	}
}

// TestOverlapSymmetry holds TotalOverlap on random hierarchy pairs to
// symmetry, to both sizes as bounds and to the per-level pairwise sum.
func TestOverlapSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a, b := randomHierarchy(r), randomHierarchy(r)
		if TotalOverlap(a, b) != TotalOverlap(b, a) {
			t.Fatalf("overlap not symmetric")
		}
		if TotalOverlap(a, b) > a.NumPoints() || TotalOverlap(a, b) > b.NumPoints() {
			t.Fatalf("overlap exceeds hierarchy size")
		}
		var want int64
		for l := range min(len(a.Levels), len(b.Levels)) {
			want += geom.OverlapVolumeNaive(a.Levels[l].Boxes, b.Levels[l].Boxes)
		}
		if got := TotalOverlap(a, b); got != want {
			t.Fatalf("trial %d: TotalOverlap = %d, per-level pairwise sum %d", trial, got, want)
		}
	}
}

// randomHierarchy builds a valid two-to-three-level hierarchy with random
// nested refinement.
func randomHierarchy(r *rand.Rand) *Hierarchy {
	h := NewHierarchy(base(), 2)
	// One random level-1 patch (in level-1 index space: domain 64x64).
	x, y := r.Intn(40), r.Intn(40)
	w, hh := 8+r.Intn(16), 8+r.Intn(16)
	b1 := geom.NewBox2(x, y, minInt(x+w, 64), minInt(y+hh, 64))
	h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{b1}})
	if r.Intn(2) == 0 {
		// Nested level-2 patch inside b1 refined.
		fine := b1.Refine(2)
		b2 := geom.NewBox2(fine.Lo[0]+2, fine.Lo[1]+2, fine.Lo[0]+2+8, fine.Lo[1]+2+8).Intersect(fine)
		if !b2.Empty() {
			h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{b2}})
		}
	}
	return h
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestRandomHierarchiesValidate(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		if err := randomHierarchy(r).Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
