package sim

import (
	"context"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/trace"
)

// bg is the background context of the non-cancellation tests.
var bg = context.Background()

// mustPartition partitions with the background context, failing on the
// impossible error path.
func mustPartition(t testing.TB, p partition.Partitioner, h *grid.Hierarchy, np int) *partition.Assignment {
	t.Helper()
	a, err := p.Partition(bg, h, np)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustEvaluate evaluates with the background context.
func mustEvaluate(t testing.TB, h *grid.Hierarchy, a *partition.Assignment, m Machine) StepMetrics {
	t.Helper()
	sm, err := Evaluate(bg, h, a, m)
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func flat(n int) *grid.Hierarchy {
	return grid.NewHierarchy(geom.NewBox2(0, 0, n, n), 2)
}

func refined(l1 geom.Box) *grid.Hierarchy {
	h := flat(32)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{l1}})
	return h
}

// halves is a hand-built two-processor assignment splitting the base
// grid down the middle.
func halves(h *grid.Hierarchy) *partition.Assignment {
	d := h.Domain
	mid := (d.Lo[0] + d.Hi[0]) / 2
	lo, hi := d.ChopDim(0, mid)
	return &partition.Assignment{NumProcs: 2, Fragments: []partition.Fragment{
		{Level: 0, Box: lo, Owner: 0},
		{Level: 0, Box: hi, Owner: 1},
	}}
}

func TestEvaluateFlatHalves(t *testing.T) {
	h := flat(32)
	a := halves(h)
	m := mustEvaluate(t, h, a, DefaultMachine())
	if m.Imbalance != 0 {
		t.Errorf("perfect split imbalance = %f", m.Imbalance)
	}
	// One internal boundary of 32 cells, imported by both sides once
	// per step (factor 1 at level 0): 64 point-transfers.
	if m.IntraLevelComm != 64 {
		t.Errorf("IntraLevelComm = %d, want 64", m.IntraLevelComm)
	}
	if m.InterLevelComm != 0 {
		t.Errorf("InterLevelComm = %d, want 0", m.InterLevelComm)
	}
	if m.Messages != 2 {
		t.Errorf("Messages = %d, want 2", m.Messages)
	}
	wantRel := 64.0 / 1024.0
	if m.RelativeComm < wantRel-1e-9 || m.RelativeComm > wantRel+1e-9 {
		t.Errorf("RelativeComm = %f, want %f", m.RelativeComm, wantRel)
	}
	if m.EstTime <= 0 {
		t.Error("EstTime should be positive")
	}
}

func TestEvaluateSingleProcNoComm(t *testing.T) {
	h := refined(geom.NewBox2(8, 8, 24, 24))
	a := mustPartition(t, partition.NewDomainSFC(), h, 1)
	m := mustEvaluate(t, h, a, DefaultMachine())
	if m.TotalComm() != 0 || m.Messages != 0 {
		t.Errorf("single processor should have zero comm, got %d/%d msgs", m.TotalComm(), m.Messages)
	}
}

func TestEvaluateInterLevelComm(t *testing.T) {
	// Level-1 patch owned by proc 1, its base entirely by proc 0:
	// all 64 underlying coarse cells cross owners, once per coarse
	// local step (factor 1).
	h := refined(geom.NewBox2(8, 8, 24, 24))
	a := &partition.Assignment{NumProcs: 2, Fragments: []partition.Fragment{
		{Level: 0, Box: h.Domain, Owner: 0},
		{Level: 1, Box: geom.NewBox2(8, 8, 24, 24), Owner: 1},
	}}
	m := mustEvaluate(t, h, a, DefaultMachine())
	if m.InterLevelComm != 64 {
		t.Errorf("InterLevelComm = %d, want 64", m.InterLevelComm)
	}
	if m.IntraLevelComm != 0 {
		t.Errorf("IntraLevelComm = %d, want 0 (single fragments per level)", m.IntraLevelComm)
	}
}

func TestDomainBasedHasNoInterLevelComm(t *testing.T) {
	// The defining advantage of domain-based partitioning (section 2.2):
	// elimination of inter-level communication.
	h := refined(geom.NewBox2(8, 8, 24, 24))
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(20, 20, 40, 40)}})
	for _, np := range []int{2, 4, 8} {
		a := mustPartition(t, partition.NewDomainSFC(), h, np)
		if err := a.Validate(h); err != nil {
			t.Fatal(err)
		}
		m := mustEvaluate(t, h, a, DefaultMachine())
		if m.InterLevelComm != 0 {
			t.Errorf("procs=%d: domain-based inter-level comm = %d, want 0", np, m.InterLevelComm)
		}
	}
}

func TestPatchBasedHasInterLevelComm(t *testing.T) {
	// The characteristic weakness of patch-based partitioning.
	h := refined(geom.NewBox2(8, 8, 24, 24))
	a := mustPartition(t, partition.NewPatchBased(), h, 4)
	m := mustEvaluate(t, h, a, DefaultMachine())
	if m.InterLevelComm == 0 {
		t.Error("patch-based partitioning of a refined grid should incur inter-level comm")
	}
}

func TestFinerLevelsCommunicateMoreOften(t *testing.T) {
	// The same geometric split at level 1 costs twice the level-0
	// transfers because level 1 steps twice per coarse step.
	h0 := flat(32)
	a0 := halves(h0)
	m0 := mustEvaluate(t, h0, a0, DefaultMachine())

	h1 := flat(32)
	h1.Levels = append(h1.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(0, 0, 64, 64)}})
	a1 := &partition.Assignment{NumProcs: 2, Fragments: []partition.Fragment{
		{Level: 0, Box: h1.Domain, Owner: 0},
		{Level: 1, Box: geom.NewBox2(0, 0, 32, 64), Owner: 0},
		{Level: 1, Box: geom.NewBox2(32, 0, 64, 64), Owner: 1},
	}}
	m1 := mustEvaluate(t, h1, a1, DefaultMachine())
	// Level-1 boundary: 64 cells each way = 128 per local step, at 2
	// local steps = 256.
	if m1.IntraLevelComm != 256 {
		t.Errorf("level-1 IntraLevelComm = %d, want 256", m1.IntraLevelComm)
	}
	if m1.IntraLevelComm <= m0.IntraLevelComm {
		t.Error("finer-level comm should exceed base-level comm")
	}
}

func TestMigrationZeroWhenOwnershipStable(t *testing.T) {
	h := refined(geom.NewBox2(8, 8, 24, 24))
	a := mustPartition(t, partition.NewDomainSFC(), h, 4)
	if m := Migration(h, h.Clone(), a, a); m != 0 {
		t.Errorf("identical assignment migration = %d", m)
	}
}

func TestMigrationCountsOwnerChanges(t *testing.T) {
	h := flat(32)
	a := halves(h)
	// Swap the halves: every cell changes owner.
	b := &partition.Assignment{NumProcs: 2, Fragments: []partition.Fragment{
		{Level: 0, Box: a.Fragments[0].Box, Owner: 1},
		{Level: 0, Box: a.Fragments[1].Box, Owner: 0},
	}}
	if m := Migration(h, h.Clone(), a, b); m != 1024 {
		t.Errorf("full swap migration = %d, want 1024", m)
	}
}

func TestMigrationExcludesNewPoints(t *testing.T) {
	// New refinement appearing from nothing is prolongation, not
	// migration.
	hPrev := flat(32)
	hCur := refined(geom.NewBox2(8, 8, 24, 24))
	aPrev := halves(hPrev)
	aCur := &partition.Assignment{NumProcs: 2, Fragments: []partition.Fragment{
		{Level: 0, Box: aPrev.Fragments[0].Box, Owner: 0},
		{Level: 0, Box: aPrev.Fragments[1].Box, Owner: 1},
		{Level: 1, Box: geom.NewBox2(8, 8, 24, 24), Owner: 1},
	}}
	if m := Migration(hPrev, hCur, aPrev, aCur); m != 0 {
		t.Errorf("creation-only step migration = %d, want 0", m)
	}
}

func sampleTrace() *trace.Trace {
	tr := &trace.Trace{App: "X", RefRatio: 2, MaxLevels: 2, Domain: geom.NewBox2(0, 0, 32, 32)}
	for s := 0; s < 5; s++ {
		h := refined(geom.NewBox2(2*s, 2*s, 2*s+16, 2*s+16))
		tr.Append(s, float64(s), h)
	}
	return tr
}

func TestSimulateTrace(t *testing.T) {
	tr := sampleTrace()
	res, err := SimulateTrace(bg, tr, partition.NewNatureFable(), 8, DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 5 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if res.Steps[0].Migration != 0 {
		t.Error("first step cannot have migration")
	}
	for i := 1; i < 5; i++ {
		s := res.Steps[i]
		if s.Migration < 0 {
			t.Errorf("step %d negative migration %d", i, s.Migration)
		}
		if s.RelativeMigration < 0 || s.RelativeMigration > 1.5 {
			t.Errorf("step %d relative migration %f implausible", i, s.RelativeMigration)
		}
		if s.Migration == 0 {
			t.Errorf("step %d: moving refinement should migrate some points", i)
		}
	}
	if res.TotalEstTime() <= 0 {
		t.Error("TotalEstTime should be positive")
	}
	if res.PartitionerName != partition.NewNatureFable().Name() {
		t.Errorf("PartitionerName = %q", res.PartitionerName)
	}
}

func TestSimulateTraceSelectDynamic(t *testing.T) {
	tr := sampleTrace()
	pats := []partition.Partitioner{partition.NewDomainSFC(), partition.NewPatchBased()}
	res, err := SimulateTraceSelect(bg, tr, func(step int, h *grid.Hierarchy) partition.Partitioner {
		return pats[step%2]
	}, 4, DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionerName != "dynamic" {
		t.Errorf("PartitionerName = %q, want dynamic", res.PartitionerName)
	}
	if len(res.Steps) != 5 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Steps: []StepMetrics{
		{Imbalance: 10, EstTime: 1},
		{Imbalance: 30, EstTime: 2},
	}}
	if r.MeanImbalance() != 20 {
		t.Errorf("MeanImbalance = %f", r.MeanImbalance())
	}
	if r.TotalEstTime() != 3 {
		t.Errorf("TotalEstTime = %f", r.TotalEstTime())
	}
}

func TestEvaluateImbalanceCouplesCommIntoTime(t *testing.T) {
	// Two assignments with identical load but different comm: the one
	// with more communication must cost more estimated time.
	h := flat(32)
	good := halves(h)
	// Striped assignment: same load split but 3 internal boundaries.
	var frags []partition.Fragment
	for i := 0; i < 4; i++ {
		frags = append(frags, partition.Fragment{
			Level: 0,
			Box:   geom.NewBox2(8*i, 0, 8*i+8, 32),
			Owner: i % 2,
		})
	}
	striped := &partition.Assignment{NumProcs: 2, Fragments: frags}
	mGood := mustEvaluate(t, h, good, DefaultMachine())
	mStriped := mustEvaluate(t, h, striped, DefaultMachine())
	if mStriped.TotalComm() <= mGood.TotalComm() {
		t.Fatal("striping should raise communication")
	}
	if mStriped.EstTime <= mGood.EstTime {
		t.Error("more communication must raise estimated time")
	}
}

func TestMessagesAggregatePerOwnerPair(t *testing.T) {
	// Four interleaved fragments between two owners share one boundary
	// pair per direction: messages must count the (dst, src) pairs per
	// local step, not the fragment pairs.
	h := flat(32)
	var frags []partition.Fragment
	for i := 0; i < 4; i++ {
		frags = append(frags, partition.Fragment{
			Level: 0,
			Box:   geom.NewBox2(8*i, 0, 8*i+8, 32),
			Owner: i % 2,
		})
	}
	a := &partition.Assignment{NumProcs: 2, Fragments: frags}
	m := mustEvaluate(t, h, a, DefaultMachine())
	// Exactly two ordered owner pairs (0<-1 and 1<-0), one level, one
	// local step.
	if m.Messages != 2 {
		t.Errorf("Messages = %d, want 2 (aggregated per owner pair)", m.Messages)
	}
}

func TestMigrationSymmetricUnderSwap(t *testing.T) {
	h := refined(geom.NewBox2(8, 8, 24, 24))
	a := mustPartition(t, partition.NewDomainSFC(), h, 4)
	b := mustPartition(t, partition.NewPatchBased(), h, 4)
	fwd := Migration(h, h.Clone(), a, b)
	rev := Migration(h, h.Clone(), b, a)
	if fwd != rev {
		t.Errorf("migration not symmetric for same hierarchy: %d vs %d", fwd, rev)
	}
}

func TestMigrationBoundedByShared(t *testing.T) {
	hPrev := refined(geom.NewBox2(0, 0, 16, 16))
	hCur := refined(geom.NewBox2(8, 8, 24, 24))
	aPrev := mustPartition(t, partition.NewDomainSFC(), hPrev, 4)
	aCur := mustPartition(t, partition.NewPatchBased(), hCur, 4)
	shared := grid.TotalOverlap(hPrev, hCur)
	if m := Migration(hPrev, hCur, aPrev, aCur); m < 0 || m > shared {
		t.Errorf("migration %d outside [0, shared=%d]", m, shared)
	}
}

func TestSimulateTraceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SimulateTrace(ctx, sampleTrace(), partition.NewNatureFable(), 8, DefaultMachine())
	if err == nil {
		t.Fatal("cancelled simulation returned no error")
	}
	if res != nil {
		t.Fatalf("cancelled simulation returned a partial result (%d steps)", len(res.Steps))
	}
}

func TestEvaluateCancelled(t *testing.T) {
	h := flat(32)
	a := halves(h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evaluate(ctx, h, a, DefaultMachine()); err == nil {
		t.Fatal("cancelled Evaluate returned no error")
	}
}

// TestTimeSlotMatchesInlineFormula holds Machine.TimeSlot to the
// expression it replaced in the server, the experiments, metapart and
// the examples, bit for bit: samrbench's trajectory prints DimII, which
// is computed from it, and bench/golden pins those bytes.
func TestTimeSlotMatchesInlineFormula(t *testing.T) {
	m := DefaultMachine()
	for _, snap := range quickTrace(t).Snapshots {
		for _, nprocs := range []int{1, 3, 16, 1000} {
			want := float64(snap.H.Workload()) * m.CellTime / float64(nprocs)
			if got := m.TimeSlot(snap.H, nprocs); got != want {
				t.Fatalf("step %d, %d procs: TimeSlot = %v, inline formula = %v", snap.Step, nprocs, got, want)
			}
		}
	}
}
