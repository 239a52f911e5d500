package sim

import (
	"reflect"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sfc"
	"samr/internal/trace"
)

// naiveSimulate is the memoization-free reference pipeline: sequential
// per-snapshot partition, evaluate, and migration chaining, exactly as
// the paper's experimental loop describes it. It shares no state with
// simulateTrace beyond the partitioner instance passed in.
func naiveSimulate(t *testing.T, tr *trace.Trace, p partition.Partitioner, nprocs int, m Machine) *Result {
	t.Helper()
	return naiveSelect(t, tr, func(int, *grid.Hierarchy) partition.Partitioner { return p }, nprocs, m)
}

// naiveSelect is naiveSimulate with a per-step choice, calling choose
// and each chosen partitioner in snapshot order.
func naiveSelect(t *testing.T, tr *trace.Trace, choose func(int, *grid.Hierarchy) partition.Partitioner, nprocs int, m Machine) *Result {
	t.Helper()
	res := &Result{NumProcs: nprocs}
	as := make([]*partition.Assignment, len(tr.Snapshots))
	for i, snap := range tr.Snapshots {
		p := choose(snap.Step, snap.H)
		switch {
		case i == 0:
			res.PartitionerName = p.Name()
		case p.Name() != res.PartitionerName:
			res.PartitionerName = "dynamic"
		}
		a, err := p.Partition(bg, snap.H, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		as[i] = a
		sm, err := Evaluate(bg, snap.H, a, m)
		if err != nil {
			t.Fatal(err)
		}
		sm.Step = snap.Step
		res.Steps = append(res.Steps, sm)
	}
	for i := 1; i < len(tr.Snapshots); i++ {
		sm := &res.Steps[i]
		sm.Migration = Migration(tr.Snapshots[i-1].H, tr.Snapshots[i].H, as[i-1], as[i])
		if np := tr.Snapshots[i-1].H.NumPoints(); np > 0 {
			sm.RelativeMigration = float64(sm.Migration) / float64(np)
		}
		sm.EstTime += float64(sm.Migration) / m.MigrationBandwidth
	}
	return res
}

// repeatTrace builds a synthetic regrid-sparse trace: each distinct
// hierarchy appears in a run of identical consecutive snapshots, the
// content pattern the memo layer exploits hardest.
func repeatTrace(repeat int) *trace.Trace {
	tr := &trace.Trace{App: "synthetic"}
	hs := []*grid.Hierarchy{
		flat(32),
		refined(geom.NewBox2(8, 8, 40, 40)),
		refined(geom.NewBox2(16, 16, 56, 48)),
		flat(32),
	}
	step := 0
	for _, h := range hs {
		for r := 0; r < repeat; r++ {
			tr.Append(step, float64(step), h)
			step++
		}
	}
	return tr
}

// TestSimulateMemoizedEqualsNaive is the pipeline-level soundness
// property: for every stateless partitioner family the memoized
// pipeline — cold caches, then warm caches — must be deep-equal to the
// naive uncached reference, on a regrid-sparse synthetic trace.
func TestSimulateMemoizedEqualsNaive(t *testing.T) {
	tr := repeatTrace(3)
	m := DefaultMachine()
	const np = 5
	families := map[string]func() partition.Partitioner{
		"domain": func() partition.Partitioner { return &partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2} },
		"patch":  func() partition.Partitioner { return partition.NewPatchBased() },
		"hybrid": func() partition.Partitioner { return partition.NewNatureFable() },
	}
	for name, mk := range families {
		want := naiveSimulate(t, tr, mk(), np, m)
		flushStepCaches()
		cold, err := SimulateTrace(bg, tr, mk(), np, m)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		warm, err := SimulateTrace(bg, tr, mk(), np, m)
		if err != nil {
			t.Fatalf("%s warm: %v", name, err)
		}
		if !reflect.DeepEqual(want, cold) {
			t.Errorf("%s: cold memoized run diverged from naive reference", name)
		}
		if !reflect.DeepEqual(want, warm) {
			t.Errorf("%s: warm memoized run diverged from naive reference", name)
		}
	}
}

// TestSimulateStatefulEqualsNaive: a postmap run through the memoized
// pipeline, cold and then warm (where each step is its inner
// partitioner's cached artifact, relabeled), must be deep-equal to the
// naive reference over the stateful wrapper's sequential chain.
func TestSimulateStatefulEqualsNaive(t *testing.T) {
	tr := repeatTrace(2)
	m := DefaultMachine()
	const np = 4
	mk := func() partition.Partitioner {
		return partition.NewPostMapped(&partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2})
	}
	want := naiveSelect(t, tr, statefulChooser(staticChooser(mk())), np, m)
	flushStepCaches()
	for _, pass := range []string{"cold", "warm"} {
		got, err := SimulateTrace(bg, tr, mk(), np, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: postmap run diverged from the stateful reference", pass)
		}
	}
}

// TestMachineModelKeysCache: two machine models must not share step
// artifacts — EstTime depends on the model, and a cache collision would
// silently misprice one of them.
func TestMachineModelKeysCache(t *testing.T) {
	tr := repeatTrace(1)
	const np = 4
	m1 := DefaultMachine()
	m2 := DefaultMachine()
	m2.MessageLatency *= 10
	flushStepCaches()
	r1, err := SimulateTrace(bg, tr, partition.NewNatureFable(), np, m1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateTrace(bg, tr, partition.NewNatureFable(), np, m2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Steps, r2.Steps) {
		t.Fatal("different machine models produced identical steps — cache key ignores the model")
	}
	if !reflect.DeepEqual(r1, naiveSimulate(t, tr, partition.NewNatureFable(), np, m1)) {
		t.Error("m1 run diverged from naive reference")
	}
	if !reflect.DeepEqual(r2, naiveSimulate(t, tr, partition.NewNatureFable(), np, m2)) {
		t.Error("m2 run diverged from naive reference")
	}
}

// TestMemoStatsAdvance: a warm rerun must register memoized
// partitions, evaluations, and migration savings.
func TestMemoStatsAdvance(t *testing.T) {
	tr := repeatTrace(2)
	m := DefaultMachine()
	flushStepCaches()
	if _, err := SimulateTrace(bg, tr, partition.NewNatureFable(), 4, m); err != nil {
		t.Fatal(err)
	}
	p0, e0, g0 := MemoStats()
	if _, err := SimulateTrace(bg, tr, partition.NewNatureFable(), 4, m); err != nil {
		t.Fatal(err)
	}
	p1, e1, g1 := MemoStats()
	n := uint64(len(tr.Snapshots))
	if p1-p0 != n || e1-e0 != n {
		t.Errorf("warm rerun memoized %d partitions / %d evaluations, want %d each", p1-p0, e1-e0, n)
	}
	// Only consecutive steps sharing one assignment skip the migration
	// scan: repeatTrace(2) has one such pair per distinct hierarchy.
	if g1-g0 != n/2 {
		t.Errorf("warm rerun saved %d migration scans, want %d", g1-g0, n/2)
	}
}
