package partition

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/sfc"
)

// mustPartition runs p with a background context and fails the test on
// error (impossible without cancellation, on a hierarchy within the
// unit budget).
func mustPartition(t testing.TB, p Partitioner, h *grid.Hierarchy, np int) *Assignment {
	t.Helper()
	a, err := p.Partition(context.Background(), h, np)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// testHierarchy builds a 3-level hierarchy with two separated refined
// regions, one of which carries a level-2 patch.
func testHierarchy() *grid.Hierarchy {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{
		geom.NewBox2(4, 4, 16, 16),   // level-1 patch (level-1 space)
		geom.NewBox2(40, 40, 56, 60), // second refined region
	}})
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{
		geom.NewBox2(12, 12, 28, 28), // nested in the first L1 patch
	}})
	return h
}

func allPartitioners() []Partitioner {
	return []Partitioner{
		NewDomainSFC(),
		&DomainSFC{Curve: sfc.Morton, UnitSize: 4},
		NewPatchBased(),
		NewNatureFable(),
		&NatureFable{Curve: sfc.Morton, AtomicUnit: 4, Groups: 2, FractionalBlocking: false},
	}
}

func TestHierarchyFixtureValid(t *testing.T) {
	if err := testHierarchy().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPartitionersProduceValidAssignments(t *testing.T) {
	h := testHierarchy()
	for _, p := range allPartitioners() {
		for _, np := range []int{1, 2, 4, 16, 32} {
			a := mustPartition(t, p, h, np)
			if err := a.Validate(h); err != nil {
				t.Errorf("%s procs=%d: %v", p.Name(), np, err)
			}
		}
	}
}

// TestVolumetricHierarchy pins the precondition the Partitioner contract
// states from this side: the 16³ domain with one refined 16³ patch that
// the unit-chain partitioners once covered one slab of (and later
// refused themselves) is not a hierarchy grid.Hierarchy.Validate
// accepts, so no caller that validates can hand it to a partitioner.
func TestVolumetricHierarchy(t *testing.T) {
	cube := func(lo, hi int) geom.Box {
		return geom.Box{Lo: geom.IntVect{lo, lo, lo}, Hi: geom.IntVect{hi, hi, hi}, Dim: 3}
	}
	h := grid.NewHierarchy(cube(0, 16), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{cube(8, 24)}})
	if err := h.Validate(); err == nil {
		t.Fatal("a volumetric hierarchy validated")
	}
}

func TestPartitionUnrefinedHierarchy(t *testing.T) {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 16, 16), 2)
	for _, p := range allPartitioners() {
		a := mustPartition(t, p, h, 4)
		if err := a.Validate(h); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
		if imb := a.Imbalance(h); imb > 30 {
			t.Errorf("%s: imbalance %f%% on a flat grid", p.Name(), imb)
		}
	}
}

func TestDomainSFCBalancesLoad(t *testing.T) {
	h := testHierarchy()
	a := mustPartition(t, NewDomainSFC(), h, 8)
	if imb := a.Imbalance(h); imb > 60 {
		t.Errorf("domain SFC imbalance = %f%%, want moderate", imb)
	}
}

func TestDomainSFCSingleProc(t *testing.T) {
	h := testHierarchy()
	a := mustPartition(t, NewDomainSFC(), h, 1)
	if imb := a.Imbalance(h); imb != 0 {
		t.Errorf("single-proc imbalance = %f", imb)
	}
	for _, f := range a.Fragments {
		if f.Owner != 0 {
			t.Fatalf("single-proc fragment owned by %d", f.Owner)
		}
	}
}

func TestDomainSFCKeepsColumnsTogether(t *testing.T) {
	// Domain-based property: for any base-space unit, all levels above
	// it share one owner -> zero inter-level crossings.
	h := testHierarchy()
	a := mustPartition(t, NewDomainSFC(), h, 8)
	ownerAt := map[geom.IntVect]int{}
	for _, f := range a.Fragments {
		if f.Level != 0 {
			continue
		}
		f.Box.Cells(func(p geom.IntVect) { ownerAt[p] = f.Owner })
	}
	for _, f := range a.Fragments {
		if f.Level == 0 {
			continue
		}
		fac := 1
		for i := 0; i < f.Level; i++ {
			fac *= h.RefRatio
		}
		f.Box.Cells(func(p geom.IntVect) {
			base := geom.IV2(floorDivT(p[0], fac), floorDivT(p[1], fac))
			if ownerAt[base] != f.Owner {
				t.Fatalf("level %d cell %v owner %d != column owner %d",
					f.Level, p, f.Owner, ownerAt[base])
			}
		})
		if t.Failed() {
			return
		}
	}
}

func floorDivT(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func TestPatchBasedBalancesEachLevel(t *testing.T) {
	h := testHierarchy()
	a := mustPartition(t, NewPatchBased(), h, 4)
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
	// With splitting enabled, global imbalance should be moderate.
	if imb := a.Imbalance(h); imb > 80 {
		t.Errorf("patch-based imbalance = %f%%", imb)
	}
}

func TestPatchBasedSplitsHugePatches(t *testing.T) {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 64, 64), 2)
	a := mustPartition(t, NewPatchBased(), h, 8)
	// A single 64x64 patch over 8 procs must split: more than 1 fragment.
	if len(a.Fragments) < 8 {
		t.Errorf("expected the base patch to split into >= 8 fragments, got %d", len(a.Fragments))
	}
	if imb := a.Imbalance(h); imb > 30 {
		t.Errorf("imbalance after splitting = %f%%", imb)
	}
}

func TestNatureFableSeparatesHuesAndCores(t *testing.T) {
	h := testHierarchy()
	cores, err := makeCoreRegions(context.Background(), h.Footprint(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cores) == 0 {
		t.Fatal("no core regions found for a refined hierarchy")
	}
	// Core regions made from level 1 must cover every refined footprint.
	for l := 1; l < len(h.Levels); l++ {
		for _, fp := range h.Footprint(l) {
			if !coversBox(cores, fp) {
				t.Errorf("core regions do not cover level %d footprint %v", l, fp)
			}
		}
	}
	// And be disjoint.
	if !disjointPairwise(cores) {
		t.Error("core regions overlap")
	}
}

func TestNatureFableCoreOwnersDifferFromHueOwners(t *testing.T) {
	h := testHierarchy()
	a := mustPartition(t, NewNatureFable(), h, 8)
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
	// Refined-level fragments should use the core processor range only.
	coreOwners := map[int]bool{}
	for _, f := range a.Fragments {
		if f.Level > 0 {
			coreOwners[f.Owner] = true
		}
	}
	if len(coreOwners) < 2 {
		t.Errorf("core work concentrated on %d processors", len(coreOwners))
	}
}

func TestNatureFableGroupsClamp(t *testing.T) {
	h := testHierarchy()
	nf := &NatureFable{Curve: sfc.Hilbert, AtomicUnit: 2, Groups: 64, FractionalBlocking: true}
	a := mustPartition(t, nf, h, 4) // Q far larger than procs
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceComputation(t *testing.T) {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 4, 4), 2)
	a := &Assignment{NumProcs: 2, Fragments: []Fragment{
		{Level: 0, Box: geom.NewBox2(0, 0, 4, 3), Owner: 0}, // 12 cells
		{Level: 0, Box: geom.NewBox2(0, 3, 4, 4), Owner: 1}, // 4 cells
	}}
	// max=12, avg=8 -> 50%.
	if imb := a.Imbalance(h); imb < 49.9 || imb > 50.1 {
		t.Errorf("imbalance = %f, want 50", imb)
	}
}

func TestValidateCatchesGaps(t *testing.T) {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 4, 4), 2)
	a := &Assignment{NumProcs: 1, Fragments: []Fragment{
		{Level: 0, Box: geom.NewBox2(0, 0, 4, 3), Owner: 0},
	}}
	if err := a.Validate(h); err == nil {
		t.Error("Validate should catch uncovered cells")
	}
	b := &Assignment{NumProcs: 1, Fragments: []Fragment{
		{Level: 0, Box: geom.NewBox2(0, 0, 4, 4), Owner: 0},
		{Level: 0, Box: geom.NewBox2(0, 0, 1, 1), Owner: 0},
	}}
	if err := b.Validate(h); err == nil {
		t.Error("Validate should catch overlapping fragments")
	}
	c := &Assignment{NumProcs: 1, Fragments: []Fragment{
		{Level: 0, Box: geom.NewBox2(0, 0, 4, 4), Owner: 3},
	}}
	if err := c.Validate(h); err == nil {
		t.Error("Validate should catch out-of-range owner")
	}
}

// TestValidateRefusesOffLevelFragments: a fragment on a level the
// hierarchy lacks, above its last or below 0, is not part of an exact
// cover, whatever its owner, even when the levels h has are covered.
func TestValidateRefusesOffLevelFragments(t *testing.T) {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 4, 4), 2)
	cover := Fragment{Level: 0, Box: geom.NewBox2(0, 0, 4, 4), Owner: 0}
	for _, f := range []Fragment{
		{Level: 3, Box: geom.NewBox2(0, 0, 2, 2), Owner: 7},
		{Level: 1, Box: geom.NewBox2(0, 0, 2, 2), Owner: 1},
		{Level: -1, Box: geom.NewBox2(0, 0, 2, 2), Owner: 0},
	} {
		a := &Assignment{NumProcs: 2, Fragments: []Fragment{cover, f}}
		if err := a.Validate(h); err == nil {
			t.Errorf("Validate accepted a fragment on level %d of a one-level hierarchy", f.Level)
		}
	}
	if err := (&Assignment{NumProcs: 2, Fragments: []Fragment{cover}}).Validate(h); err != nil {
		t.Errorf("Validate refused the exact cover: %v", err)
	}
}

func TestCutChainProportions(t *testing.T) {
	w := make([]int64, 100)
	for i := range w {
		w[i] = 10
	}
	owners := cutChain(w, 4)
	counts := map[int]int{}
	for _, o := range owners {
		counts[o]++
	}
	for p := 0; p < 4; p++ {
		if counts[p] < 20 || counts[p] > 30 {
			t.Errorf("part %d has %d units, want ~25", p, counts[p])
		}
	}
	// Contiguity.
	for i := 1; i < len(owners); i++ {
		if owners[i] < owners[i-1] {
			t.Fatal("cutChain not monotone")
		}
	}
}

func TestCutChainZeroWeights(t *testing.T) {
	owners := cutChain(make([]int64, 10), 3) // all zero weight
	for _, o := range owners {
		if o < 0 || o > 2 {
			t.Fatalf("owner %d out of range", o)
		}
	}
}

func TestMergeFragmentsPreservesCoverage(t *testing.T) {
	frags := []Fragment{
		{Level: 0, Box: geom.NewBox2(0, 0, 2, 4), Owner: 1},
		{Level: 0, Box: geom.NewBox2(2, 0, 4, 4), Owner: 1},
		{Level: 0, Box: geom.NewBox2(4, 0, 8, 4), Owner: 2},
	}
	merged := mergeUncancelled(frags)
	var vol1, vol2 int64
	for _, f := range merged {
		switch f.Owner {
		case 1:
			vol1 += f.Box.Volume()
		case 2:
			vol2 += f.Box.Volume()
		}
	}
	if vol1 != 16 || vol2 != 16 {
		t.Errorf("merged volumes = %d, %d", vol1, vol2)
	}
	if len(merged) != 2 {
		t.Errorf("expected owner-1 boxes to merge, got %d fragments", len(merged))
	}
}

func TestPartitionersDeterministic(t *testing.T) {
	h := testHierarchy()
	for _, p := range allPartitioners() {
		a1 := mustPartition(t, p, h, 8)
		a2 := mustPartition(t, p, h, 8)
		if len(a1.Fragments) != len(a2.Fragments) {
			t.Fatalf("%s: nondeterministic fragment count", p.Name())
		}
		for i := range a1.Fragments {
			if a1.Fragments[i] != a2.Fragments[i] {
				t.Fatalf("%s: nondeterministic fragment %d", p.Name(), i)
			}
		}
	}
}

func TestPartitionersOnRandomHierarchies(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		h := randomHierarchy(r)
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, p := range allPartitioners() {
			np := 1 + r.Intn(16)
			a := mustPartition(t, p, h, np)
			if err := a.Validate(h); err != nil {
				t.Errorf("trial %d %s procs=%d: %v", trial, p.Name(), np, err)
			}
		}
	}
}

// offOriginHierarchy is a two-level hierarchy whose base domain does not
// start at 0: a unit edge near MaxInt carried the chop's running corner
// past MaxInt there, and the unit chain wrapped.
func offOriginHierarchy() *grid.Hierarchy {
	h := grid.NewHierarchy(geom.NewBox2(3, 5, 35, 37), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(10, 14, 40, 44)}})
	return h
}

// TestHugeUnitsCoverOffOrigin: a unit larger than the region is the
// region, whatever its edge, for both unit-chain families.
func TestHugeUnitsCoverOffOrigin(t *testing.T) {
	h := offOriginHierarchy()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1 << 31, 1 << 62, math.MaxInt64} {
		for _, p := range []Partitioner{
			&DomainSFC{Curve: sfc.Hilbert, UnitSize: u},
			&NatureFable{Curve: sfc.Hilbert, AtomicUnit: u, Groups: 4, FractionalBlocking: true},
		} {
			if err := mustPartition(t, p, h, 4).Validate(h); err != nil {
				t.Errorf("%s: %v", p.Name(), err)
			}
		}
	}
}

// TestUnitBudget: the count is the chop's, ceil(extent / unit) per axis
// summed over the base boxes, and past 2^20 every unit-chain
// partitioner refuses with ErrTooManyUnits and no assignment, while a
// unit large enough brings the same base inside the budget.
func TestUnitBudget(t *testing.T) {
	for _, tc := range []struct {
		region geom.BoxList
		unit   int
		ok     bool
	}{
		{geom.BoxList{geom.NewBox2(0, 0, 1024, 1024)}, 1, true},
		{geom.BoxList{geom.NewBox2(0, 0, 1024, 1025)}, 1, false},
		{geom.BoxList{geom.NewBox2(0, 0, 2048, 2048)}, 2, true},
		{geom.BoxList{geom.NewBox2(0, 0, 2049, 2048)}, 2, false},                                 // 1025 × 1024
		{geom.BoxList{geom.NewBox2(0, 0, 1024, 1024), geom.NewBox2(1024, 0, 1025, 1)}, 1, false}, // one unit over
		{geom.BoxList{geom.NewBox2(-1<<30, -1<<30, 1<<30, 1<<30)}, math.MaxInt64, true},
	} {
		if err := checkUnits(tc.region, tc.unit); (err == nil) != tc.ok || err != nil && !errors.Is(err, ErrTooManyUnits) {
			t.Errorf("%v at unit %d: %v", tc.region, tc.unit, err)
		}
	}
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 1<<16, 1<<16), 2)
	for _, p := range []Partitioner{NewDomainSFC(), NewNatureFable(), NewPostMapped(NewDomainSFC())} {
		if a, err := p.Partition(context.Background(), h, 4); a != nil || !errors.Is(err, ErrTooManyUnits) {
			t.Errorf("%s on a 65536² base: (%v, %v), want ErrTooManyUnits", p.Name(), a, err)
		}
	}
	if err := mustPartition(t, &NatureFable{Curve: sfc.Hilbert, AtomicUnit: 1 << 16, Groups: 4}, h, 4).Validate(h); err != nil {
		t.Error(err)
	}
}

// randomHierarchy builds a random valid 2-3 level hierarchy.
func randomHierarchy(r *rand.Rand) *grid.Hierarchy {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
	var l1 geom.BoxList
	for i := 0; i < 1+r.Intn(3); i++ {
		x, y := r.Intn(48), r.Intn(48)
		b := geom.NewBox2(x, y, min(x+4+r.Intn(12), 64), min(y+4+r.Intn(12), 64))
		ok := true
		for _, e := range l1 {
			if e.Intersects(b) {
				ok = false
			}
		}
		if ok && !b.Empty() {
			l1 = append(l1, b)
		}
	}
	if len(l1) > 0 {
		h.Levels = append(h.Levels, grid.Level{Boxes: l1})
		if r.Intn(2) == 0 {
			f := l1[0].Refine(2)
			b2 := geom.NewBox2(f.Lo[0], f.Lo[1], f.Lo[0]+(f.Size(0)/2), f.Lo[1]+(f.Size(1)/2))
			if !b2.Empty() {
				h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{b2}})
			}
		}
	}
	return h
}
