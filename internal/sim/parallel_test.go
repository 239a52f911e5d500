package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sfc"
	"samr/internal/trace"
)

func quickTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := apps.QuickTrace(context.Background(), "TP2D")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// withProcs raises GOMAXPROCS for the test so the worker pool admits
// real helper goroutines even on a single-core runner (pool.MapCtx
// caps process-wide helpers at GOMAXPROCS-1).
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// mustSimulate runs the pipeline with the background context.
func mustSimulate(t *testing.T, tr *trace.Trace, choose func(int, *grid.Hierarchy) partition.Partitioner, nprocs int, m Machine, workers int) *Result {
	t.Helper()
	res, err := simulateTrace(context.Background(), tr, choose, nprocs, m, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireIdentical asserts two results agree bit-for-bit, step for step.
func requireIdentical(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.PartitionerName != par.PartitionerName || seq.NumProcs != par.NumProcs {
		t.Fatalf("header mismatch: %q/%d vs %q/%d",
			seq.PartitionerName, seq.NumProcs, par.PartitionerName, par.NumProcs)
	}
	if len(seq.Steps) != len(par.Steps) {
		t.Fatalf("step count %d vs %d", len(seq.Steps), len(par.Steps))
	}
	for i := range seq.Steps {
		if !reflect.DeepEqual(seq.Steps[i], par.Steps[i]) {
			t.Fatalf("step %d diverged:\nseq: %+v\npar: %+v", i, seq.Steps[i], par.Steps[i])
		}
	}
}

// TestSimulateTraceParallelDeterministic: the worker-pool pipeline must
// produce StepMetrics bit-identical to the sequential path, for every
// worker count.
func TestSimulateTraceParallelDeterministic(t *testing.T) {
	withProcs(t, 4)
	tr := quickTrace(t)
	m := DefaultMachine()
	chooser := func(p partition.Partitioner) func(int, *grid.Hierarchy) partition.Partitioner {
		return func(step int, h *grid.Hierarchy) partition.Partitioner { return p }
	}
	p := partition.NewNatureFable()
	seq := mustSimulate(t, tr, chooser(p), 8, m, 1)
	for _, workers := range []int{2, 3, 8} {
		par := mustSimulate(t, tr, chooser(p), 8, m, workers)
		requireIdentical(t, seq, par)
	}
}

// TestSimulateTraceParallelStateful: a postmap run relabels its steps
// in one serial pass after the parallel, memoized ones; a warm run at
// four workers must match a cold one at one worker exactly.
func TestSimulateTraceParallelStateful(t *testing.T) {
	withProcs(t, 4)
	tr := quickTrace(t)
	m := DefaultMachine()
	p := partition.NewPostMapped(&partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2})
	flushStepCaches()
	cold := mustSimulate(t, tr, staticChooser(p), 8, m, 1)
	warm := mustSimulate(t, tr, staticChooser(p), 8, m, 4)
	requireIdentical(t, cold, warm)
}

// TestSimulateTraceParallelDynamic: the meta-partitioner's per-step
// selection (stateful chooser, possibly stateful choice) through the
// public API must match a single-worker run.
func TestSimulateTraceParallelDynamic(t *testing.T) {
	withProcs(t, 4)
	tr := quickTrace(t)
	m := DefaultMachine()
	run := func(workers int) *Result {
		meta := core.NewMetaPartitioner(core.DefaultPartitionCost)
		return mustSimulate(t, tr, func(step int, h *grid.Hierarchy) partition.Partitioner {
			return meta.Select(h, 1e-3)
		}, 8, m, workers)
	}
	requireIdentical(t, run(1), run(4))
}

// BenchmarkSimulateTraceWarm times the simulator over the four quick
// traces under every partitioner of the meta-partitioner's stable at 16
// processors, the step cache warm: what a replayed experiment pays for
// cache hits, the copies of the assignments the migration scans read,
// the postmap member's relabels, and the scans.
func BenchmarkSimulateTraceWarm(b *testing.B) {
	var trs []*trace.Trace
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(bg, app)
		if err != nil {
			b.Fatal(err)
		}
		trs = append(trs, tr)
	}
	stable := core.NewMetaPartitioner(core.DefaultPartitionCost).Stable()
	m := DefaultMachine()
	run := func() {
		for _, tr := range trs {
			for _, p := range stable {
				if _, err := SimulateTrace(bg, tr, p, 16, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	run()
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
	b.ReportMetric(float64(len(trs)*len(stable)), "runs/op")
}
