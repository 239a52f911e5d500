package core

import (
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
)

func TestClassifierFirstSample(t *testing.T) {
	c := NewClassifier(0.01)
	s := c.Classify(refined(geom.NewBox2(8, 8, 24, 24)), 1.0)
	if s.BetaM != 0 {
		t.Errorf("first sample beta_m = %f, want 0 (no previous state)", s.BetaM)
	}
	if s.SizeNorm != 1 {
		t.Errorf("first sample SizeNorm = %f, want 1 (it is the max so far)", s.SizeNorm)
	}
	if s.Step != 0 {
		t.Errorf("Step = %d", s.Step)
	}
}

// TestClassifyLoadPenaltyIsMemoizedByContent: BetaL comes from the
// content-addressed memo, so it must equal LoadPenalty of the
// hierarchy itself on the first meeting and on every later one, through
// any classifier and for a copy of the same content, and hierarchies
// with as many points in other places must not share an entry.
func TestClassifyLoadPenaltyIsMemoizedByContent(t *testing.T) {
	var hs []*grid.Hierarchy
	for x := 0; x < 40; x += 5 {
		hs = append(hs, refined(geom.NewBox2(x, 3, x+20, 23)))
	}
	hs = append(hs, hs[0].Clone())
	for pass := range 2 {
		c := NewClassifier(0.01)
		for i, h := range hs {
			if got, want := c.Classify(h, 1).BetaL, LoadPenalty(h); got != want {
				t.Fatalf("pass %d, hierarchy %d: BetaL %v, LoadPenalty %v", pass, i, got, want)
			}
		}
	}
}

func TestClassifierTracksMaxSize(t *testing.T) {
	c := NewClassifier(0.01)
	big := refined(geom.NewBox2(0, 0, 64, 64))
	small := refined(geom.NewBox2(0, 0, 16, 16))
	c.Classify(big, 1)
	s := c.Classify(small, 1)
	// |small| = 1024+256 = 1280; |big| = 1024+4096 = 5120.
	want := 1280.0 / 5120.0
	if s.SizeNorm < want-1e-9 || s.SizeNorm > want+1e-9 {
		t.Errorf("SizeNorm = %f, want %f", s.SizeNorm, want)
	}
}

func TestClassifierDimIRange(t *testing.T) {
	c := NewClassifier(0.01)
	for _, h := range []*grid.Hierarchy{
		baseHierarchy(),
		refined(geom.NewBox2(0, 0, 8, 8)),
		refined(geom.NewBox2(20, 20, 50, 52)),
	} {
		s := c.Classify(h, 1)
		if s.DimI < 0 || s.DimI > 1 || s.DimII < 0 || s.DimII > 1 || s.DimIII < 0 || s.DimIII > 1 {
			t.Fatalf("classification point out of cube: %+v", s.Point)
		}
	}
}

func TestClassifierDimINeutralOnFeaturelessGrid(t *testing.T) {
	// A flat base grid has beta_l = 0; DimI must not divide by zero and
	// should lean toward communication only as far as beta_c says.
	c := NewClassifier(0.01)
	s := c.Classify(baseHierarchy(), 1)
	if s.DimI != 1.0 { // beta_l = 0, beta_c = 0.125 -> DimI = 1
		t.Errorf("flat grid DimI = %f, want 1 (only comm pressure exists)", s.DimI)
	}
}

func TestClassifierDimIIRespondsToTimeSlot(t *testing.T) {
	// Larger time slots must never lower DimII (more room for quality).
	h := refined(geom.NewBox2(8, 8, 24, 24))
	cShort := NewClassifier(0.1)
	cLong := NewClassifier(0.1)
	sShort := cShort.Classify(h, 0.01)
	sLong := cLong.Classify(h, 10.0)
	if sLong.DimII < sShort.DimII {
		t.Errorf("DimII with long slot (%f) < with short slot (%f)", sLong.DimII, sShort.DimII)
	}
	if sLong.Offer <= sShort.Offer {
		t.Errorf("Offer: long %f <= short %f", sLong.Offer, sShort.Offer)
	}
}

func TestClassifierDimIIScalesWithNeed(t *testing.T) {
	// Section 4.2: a large imbalance at a grid-size peak matters more
	// than at a trough. Same penalties, smaller grid => smaller DimII.
	big := refined(geom.NewBox2(0, 0, 32, 32))
	small := refined(geom.NewBox2(0, 0, 16, 16))
	c := NewClassifier(0.1)
	sBig := c.Classify(big, 1)
	sSmall := c.Classify(small, 1)
	if sSmall.Need >= sBig.Need {
		t.Errorf("Need should shrink with grid size: small %f >= big %f", sSmall.Need, sBig.Need)
	}
}

func TestClassifierDimIIIIsMigrationPenalty(t *testing.T) {
	c := NewClassifier(0.01)
	a := refined(geom.NewBox2(0, 0, 16, 16))
	b := refined(geom.NewBox2(40, 40, 56, 56))
	c.Classify(a, 1)
	s := c.Classify(b, 1)
	want := MigrationPenalty(a, b)
	if s.DimIII != want {
		t.Errorf("DimIII = %f, want beta_m = %f", s.DimIII, want)
	}
}

func TestClassifierReset(t *testing.T) {
	c := NewClassifier(0.01)
	c.Classify(refined(geom.NewBox2(0, 0, 32, 32)), 1)
	c.Reset()
	s := c.Classify(refined(geom.NewBox2(0, 0, 8, 8)), 1)
	if s.BetaM != 0 || s.SizeNorm != 1 || s.Step != 0 {
		t.Errorf("Reset did not clear state: %+v", s)
	}
}

func TestTrajectoryLength(t *testing.T) {
	hs := []*grid.Hierarchy{
		refined(geom.NewBox2(0, 0, 16, 16)),
		refined(geom.NewBox2(8, 8, 24, 24)),
		refined(geom.NewBox2(16, 16, 32, 32)),
	}
	c := NewClassifier(0.01)
	var traj []Sample
	for _, h := range hs {
		traj = append(traj, c.Classify(h, 1))
	}
	if len(traj) != 3 {
		t.Fatalf("trajectory length = %d", len(traj))
	}
	// Moving refinement: later samples must register migration.
	if traj[1].BetaM <= 0 || traj[2].BetaM <= 0 {
		t.Errorf("moving refinement should give positive beta_m: %f, %f",
			traj[1].BetaM, traj[2].BetaM)
	}
}

func TestMetaPartitionerSelection(t *testing.T) {
	m := NewMetaPartitioner(0.01)
	// First snapshot: no migration, a mid-size refined grid.
	h1 := refined(geom.NewBox2(8, 8, 24, 24))
	p1 := m.Select(h1, 1)
	if p1 == nil {
		t.Fatal("no partitioner selected")
	}
	if _, ok := m.LastSample(); !ok {
		t.Fatal("LastSample not recorded")
	}
	// Snapshots jumping around: sustained migration pressure must pick
	// the migration-oriented choice. Two consecutive votes are needed —
	// selection is damped with hysteresis to avoid thrashing.
	h2 := refined(geom.NewBox2(40, 40, 56, 56))
	m.Select(h2, 1)
	h3 := refined(geom.NewBox2(0, 40, 16, 56))
	p3 := m.Select(h3, 1)
	s, _ := m.LastSample()
	if s.DimIII > migrationCutoff && p3.Name() != m.Stable()[1].Name() {
		t.Errorf("DimIII=%f should select the low-migration partitioner, got %s", s.DimIII, p3.Name())
	}
}

func TestMetaPartitionerHysteresis(t *testing.T) {
	// A single-step spike must not flip the choice; two consecutive
	// agreeing classifications must.
	m := NewMetaPartitioner(0.01)
	steady := refined(geom.NewBox2(8, 8, 24, 24))
	first := m.Select(steady, 1)
	// One migration spike: choice unchanged.
	spike := refined(geom.NewBox2(40, 40, 56, 56))
	if got := m.Select(spike, 1); got != first {
		t.Errorf("single spike flipped the choice to %s", got.Name())
	}
	// A second consecutive migration-pressure step: now it may flip.
	spike2 := refined(geom.NewBox2(0, 40, 16, 56))
	p := m.Select(spike2, 1)
	s, _ := m.LastSample()
	if s.DimIII > migrationCutoff && p.Name() != m.Stable()[1].Name() {
		t.Errorf("sustained pressure (DimIII=%f) did not flip to low-migration, got %s",
			s.DimIII, p.Name())
	}
	// Reset clears the damping state.
	m.Reset()
	if _, ok := m.LastSample(); ok {
		t.Error("Reset did not clear the sample")
	}
}

func TestMetaPartitionerStableDistinct(t *testing.T) {
	m := NewMetaPartitioner(0.01)
	names := map[string]bool{}
	for _, p := range m.Stable() {
		if names[p.Name()] {
			t.Errorf("duplicate stable entry %s", p.Name())
		}
		names[p.Name()] = true
	}
	if len(names) != 5 {
		t.Errorf("stable size = %d, want 5", len(names))
	}
}

func TestMetaPartitionerDynamicChoiceVaries(t *testing.T) {
	// Feeding very different states should exercise at least two
	// different partitioners.
	m := NewMetaPartitioner(0.01)
	seen := map[string]bool{}
	states := []*grid.Hierarchy{
		baseHierarchy(),                       // featureless
		refined(geom.NewBox2(0, 0, 8, 8)),     // localized
		refined(geom.NewBox2(48, 48, 56, 56)), // jumped far: migration
		refined(geom.NewBox2(0, 0, 64, 64)),   // fully refined: comm-heavy
	}
	for _, h := range states {
		seen[m.Select(h, 1).Name()] = true
	}
	if len(seen) < 2 {
		t.Errorf("meta-partitioner never changed its choice: %v", seen)
	}
}
