// Package sim is the Berger–Colella SAMR execution simulator: given a
// partition-independent trace, a partitioner, and a machine model, it
// computes per-coarse-step partitioning quality metrics — load
// imbalance, intra- and inter-level communication volume, data
// migration between consecutive repartitionings, and an execution-time
// estimate. It plays the role of the Rutgers trace-driven simulator the
// paper's validation uses ("software that simulates the execution of the
// Berger-Colella SAMR algorithm ... the performance of the partitioning
// configuration at each regrid step is computed using a metric with the
// components load balance, communication, data migration, and
// overheads").
//
// Architecture: the simulator is built for throughput. Evaluate's two
// communication terms, the halo each level imports from its own
// fragments and the footprint it exchanges with the level below, are
// one owner-pair scan (commScan) run with two queries over a
// geom.BoxIndex per level; the migration overlap goes through
// geom.BoxIndex too. The per-snapshot work units of a trace run fan out
// over a bounded worker pool (internal/pool) in the phases
// simulateTrace lists, arranged so the output is bit-identical to a
// sequential run at any worker count. Every phase honours the caller's
// context: cancellation stops the pool dispatch, aborts partitioners
// mid-flight, and returns a nil result with the context's error.
package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/memo"
	"samr/internal/partition"
	"samr/internal/pool"
	"samr/internal/trace"
)

// Machine is the analytic machine model: the "C" component of the
// paper's PAC triple, reduced to the scalar parameters the
// classification model consumes (CPU speed, communication bandwidth).
type Machine struct {
	// CellTime is seconds per cell update.
	CellTime float64
	// PointBandwidth is grid points transferred per second between
	// processors.
	PointBandwidth float64
	// MessageLatency is the fixed cost per message in seconds.
	MessageLatency float64
	// MigrationBandwidth is grid points migrated per second during
	// redistribution.
	MigrationBandwidth float64
}

// DefaultMachine models a commodity cluster of the paper's era (2004):
// ~10 Mcell/s per-processor stencil throughput (a ~1 Gflop/s node at
// ~100 flops per cell update), ~10 Mpoint/s network (≈100 MB/s), 20 us
// message latency, and migration at half the link bandwidth
// (pack/unpack overhead).
func DefaultMachine() Machine {
	return Machine{
		CellTime:           1e-7,
		PointBandwidth:     1e7,
		MessageLatency:     2e-5,
		MigrationBandwidth: 5e6,
	}
}

// TimeSlot is the interval between two partitioner invocations, in
// seconds, when nprocs processors share h evenly: one coarse step of
// perfectly balanced computation. It is the timeSlot the classifier's
// dimension II (core.Classifier.Classify) expects.
func (m Machine) TimeSlot(h *grid.Hierarchy, nprocs int) float64 {
	return float64(h.Workload()) * m.CellTime / float64(nprocs)
}

// StepMetrics is the simulator output for one coarse time step.
type StepMetrics struct {
	// Step is the coarse step index (matches the trace snapshot).
	Step int
	// Loads is the per-processor computational load (weighted cell
	// updates per coarse step).
	Loads []int64
	// Imbalance is the load imbalance percentage (100*max/avg - 100).
	Imbalance float64
	// IntraLevelComm is the ghost-exchange volume in point-transfers
	// per coarse step (each level's imports times its local steps).
	IntraLevelComm int64
	// InterLevelComm is the parent-child transfer volume (prolongation
	// and restriction across owners) per coarse step.
	InterLevelComm int64
	// Messages is the number of point-to-point transfers per coarse
	// step.
	Messages int64
	// RelativeComm is (IntraLevelComm+InterLevelComm)/Workload: the
	// paper's grid-relative communication metric.
	RelativeComm float64
	// Migration is the number of grid points whose owner changed
	// relative to the previous step's assignment (points present in
	// both hierarchies).
	Migration int64
	// RelativeMigration is Migration normalized by the previous
	// hierarchy's size |H_{t-1}|: the paper's grid-relative data
	// migration metric.
	RelativeMigration float64
	// EstTime is the machine-model execution-time estimate for the
	// step, including migration cost.
	EstTime float64
}

// TotalComm returns intra- plus inter-level communication volume.
func (m StepMetrics) TotalComm() int64 { return m.IntraLevelComm + m.InterLevelComm }

// ownedFragments groups an assignment's fragments per level.
func ownedFragments(a *partition.Assignment, numLevels int) [][]partition.Fragment {
	out := make([][]partition.Fragment, numLevels)
	for _, f := range a.Fragments {
		if f.Level < numLevels {
			out[f.Level] = append(out[f.Level], f)
		}
	}
	return out
}

// checkCtx polls ctx, wrapping its error for the simulator layer.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// pairSet tracks (receiver, sender) processor pairs as a flat flag
// array keyed dst*nprocs+src, with a touched-key list so clearing costs
// O(pairs seen) instead of O(nprocs^2). It replaces the per-level
// map[pair]bool the hot evaluation loop used to allocate and hash.
type pairSet struct {
	flags []bool
	keys  []int
}

// reset prepares the set for nprocs processors, clearing any pairs left
// from the previous use.
func (s *pairSet) reset(nprocs int) {
	for _, k := range s.keys {
		s.flags[k] = false
	}
	s.keys = s.keys[:0]
	if n := nprocs * nprocs; len(s.flags) < n {
		s.flags = make([]bool, n)
	}
}

// add records key k = dst*nprocs+src once.
func (s *pairSet) add(k int) {
	if !s.flags[k] {
		s.flags[k] = true
		s.keys = append(s.keys, k)
	}
}

// evalScratch is the reusable working state of one Evaluate call: the
// per-processor accumulators, the pair set, the BoxIndex query buffer,
// and the per-level slice headers. A sync.Pool recycles it across
// calls (and across the worker pool's concurrent evaluations), so a
// trace run stops allocating these per snapshot.
type evalScratch struct {
	comm    []int64
	msgs    []int64
	pairs   pairSet
	buf     []int
	indexes []*geom.BoxIndex
	boxes   geom.BoxList
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// grow64 returns a zeroed int64 slice of length n, reusing s's backing
// array when it is large enough.
func grow64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Evaluate computes the partition-quality metrics of one assignment on
// one hierarchy (everything except migration, which needs the previous
// step). Cancellation is polled per level and per fragment batch; a
// cancelled call returns the zero StepMetrics and ctx's error, never a
// partially accumulated one.
func Evaluate(ctx context.Context, h *grid.Hierarchy, a *partition.Assignment, m Machine) (StepMetrics, error) {
	if err := checkCtx(ctx); err != nil {
		return StepMetrics{}, err
	}
	loads := a.Loads(h)
	sm := StepMetrics{Loads: loads, Imbalance: partition.ImbalanceOf(loads)}
	perLevel := ownedFragments(a, len(h.Levels))
	nprocs := a.NumProcs

	sc := evalScratchPool.Get().(*evalScratch)
	defer evalScratchPool.Put(sc)
	sc.comm = grow64(sc.comm, nprocs)
	sc.msgs = grow64(sc.msgs, nprocs)

	// One BoxIndex per level over the fragment boxes serves both the
	// intra-level halo scan (query the grown box) and the level-above
	// inter-level scan (query the coarsened footprint).
	if cap(sc.indexes) < len(perLevel) {
		sc.indexes = make([]*geom.BoxIndex, len(perLevel))
	}
	indexes := sc.indexes[:len(perLevel)]
	// One box arena carved into disjoint per-level sub-slices: each
	// BoxIndex captures its list by reference, so levels must not share
	// storage, but the arena is reused across Evaluate calls (the
	// indexes die with the call).
	total := 0
	for _, frags := range perLevel {
		total += len(frags)
	}
	if cap(sc.boxes) < total {
		sc.boxes = make(geom.BoxList, total)
	}
	arena := sc.boxes[:total]
	for l, frags := range perLevel {
		bl := arena[:len(frags):len(frags)]
		arena = arena[len(frags):]
		for i, f := range frags {
			bl[i] = f.Box
		}
		indexes[l] = geom.NewBoxIndex(bl)
	}
	// Each level imports its one-cell halo from its own fragments every
	// local step, and exchanges its footprint with the level below once
	// per coarse local step.
	footprint := func(b geom.Box) (geom.Box, geom.Box) { return b.Coarsen(h.RefRatio), geom.Box{} }
	for l, frags := range perLevel {
		if err := sc.commScan(ctx, frags, frags, indexes[l], halo, h.StepFactor(l), &sm.IntraLevelComm, &sm.Messages); err != nil {
			return StepMetrics{}, err
		}
		if l == 0 {
			continue
		}
		if err := sc.commScan(ctx, frags, perLevel[l-1], indexes[l-1], footprint, h.StepFactor(l-1), &sm.InterLevelComm, &sm.Messages); err != nil {
			return StepMetrics{}, err
		}
	}

	if w := h.Workload(); w > 0 {
		sm.RelativeComm = float64(sm.TotalComm()) / float64(w)
	}

	// Execution-time estimate: slowest processor's compute plus
	// communication (synchronization couples them, per the paper's
	// discussion of total = computational + communicational imbalance).
	var worst float64
	for p := 0; p < a.NumProcs; p++ {
		t := float64(sm.Loads[p])*m.CellTime +
			float64(sc.comm[p])/m.PointBandwidth +
			float64(sc.msgs[p])*m.MessageLatency
		if t > worst {
			worst = t
		}
	}
	sm.EstTime = worst
	return sm, nil
}

// halo is the intra-level query: a fragment imports the one-cell ring
// around its box. The ring's overlap |(Grow(1) \ Box) x g| is computed
// as |Grow(1) x g| - |Box x g| (the ring's pieces tile exactly that
// difference), avoiding a per-pair ring BoxList.
func halo(b geom.Box) (reach, inner geom.Box) { return b.Grow(1), b }

// commScan adds one communication term of Evaluate. For each fragment f
// of frags, the cells of reach less inner (query(f.Box)) that a
// fragment of targets (indexed by idx) with another owner covers are
// transferred steps times: they add to *total and to f's owner's
// volume. Messages are aggregated per (receiver, sender) pair per step
// — real exchanges pack every fragment transfer between two processors
// into one message — so each pair the scan finds adds steps to *msgs
// and to the receiver's count.
func (sc *evalScratch) commScan(ctx context.Context, frags, targets []partition.Fragment, idx *geom.BoxIndex, query func(geom.Box) (reach, inner geom.Box), steps int64, total, msgs *int64) error {
	nprocs := len(sc.comm)
	sc.pairs.reset(nprocs)
	for i, f := range frags {
		if i%256 == 0 {
			if err := checkCtx(ctx); err != nil {
				return err
			}
		}
		reach, inner := query(f.Box)
		sc.buf = idx.AppendQuery(sc.buf[:0], reach)
		for _, j := range sc.buf {
			g := targets[j]
			if f.Owner == g.Owner {
				continue
			}
			if vol := reach.Intersect(g.Box).Volume() - inner.Intersect(g.Box).Volume(); vol > 0 {
				*total += vol * steps
				sc.comm[f.Owner] += vol * steps
				sc.pairs.add(f.Owner*nprocs + g.Owner)
			}
		}
	}
	*msgs += int64(len(sc.pairs.keys)) * steps
	for _, k := range sc.pairs.keys {
		sc.msgs[k/nprocs] += steps
	}
	return nil
}

// Migration returns the number of grid points that exist in both
// hierarchies (per-level box overlap) but belong to different owners
// under the two assignments. Newly created points are excluded: they
// are filled by prolongation and counted as inter-level communication,
// not migration.
func Migration(hPrev, hCur *grid.Hierarchy, aPrev, aCur *partition.Assignment) int64 {
	levels := len(hPrev.Levels)
	if len(hCur.Levels) < levels {
		levels = len(hCur.Levels)
	}
	var moved int64
	for l := 0; l < levels; l++ {
		shared := geom.OverlapVolume(hPrev.Levels[l].Boxes, hCur.Levels[l].Boxes)
		prevOwned := aPrev.LevelBoxes(l)
		curOwned := aCur.LevelBoxes(l)
		var stayed int64
		for p, pb := range prevOwned {
			if cb, ok := curOwned[p]; ok {
				stayed += geom.OverlapVolume(pb, cb)
			}
		}
		moved += shared - stayed
	}
	return moved
}

// Result is the simulator output for an entire trace.
type Result struct {
	// PartitionerName records which partitioner produced the metrics.
	PartitionerName string
	NumProcs        int
	Steps           []StepMetrics
}

// TotalEstTime sums the per-step execution-time estimates.
func (r *Result) TotalEstTime() float64 {
	var t float64
	for _, s := range r.Steps {
		t += s.EstTime
	}
	return t
}

// MeanImbalance returns the average load-imbalance percentage.
func (r *Result) MeanImbalance() float64 {
	if len(r.Steps) == 0 {
		return 0
	}
	var t float64
	for _, s := range r.Steps {
		t += s.Imbalance
	}
	return t / float64(len(r.Steps))
}

// SimulateTrace partitions every snapshot of the trace with p and
// evaluates each step, chaining consecutive assignments for the
// migration metric. This is the paper's experimental pipeline with a
// statically configured partitioner. A cancelled run returns a nil
// Result and ctx's error — never a truncated result.
func SimulateTrace(ctx context.Context, tr *trace.Trace, p partition.Partitioner, nprocs int, m Machine) (*Result, error) {
	return SimulateTraceSelect(ctx, tr, func(step int, h *grid.Hierarchy) partition.Partitioner {
		return p
	}, nprocs, m)
}

// SimulateTraceSelect is SimulateTrace with a per-step partitioner
// choice: the hook the meta-partitioner uses to realize fully dynamic
// PACs (partitioner as a function of application state and time).
// A processor count below one is an error, returned before any work.
func SimulateTraceSelect(ctx context.Context, tr *trace.Trace, choose func(step int, h *grid.Hierarchy) partition.Partitioner, nprocs int, m Machine) (*Result, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("sim: %d processors, want at least 1", nprocs)
	}
	return simulateTrace(ctx, tr, choose, nprocs, m, pool.Workers())
}

// Process-wide memoization savings of the trace pipeline, surfaced by
// /v1/stats and samrbench -cachestats: snapshots whose partitioning,
// evaluation, or migration scan was answered by the content-addressed
// step cache (or an identical in-flight step) instead of recomputed.
// A memoized step skips both its partition call and its evaluation, so
// one counter backs both counts.
var stepsMemoized, migrationsShortCut atomic.Uint64

// MemoStats returns the cumulative memoization counters of the trace
// pipeline: partition calls, Evaluate calls, and migration scans
// answered without recomputation because an identical
// (signature, partitioner, nprocs, machine) step had already been
// computed — in the same run, an earlier run, or a concurrent one.
// The migration counter covers consecutive steps with one step key,
// between which exactly zero points move.
func MemoStats() (partitions, evaluations, migrations uint64) {
	s := stepsMemoized.Load()
	return s, s, migrationsShortCut.Load()
}

// stepKey addresses the content-addressed result of partitioning and
// evaluating one snapshot: hierarchy content hash, partitioner Name()
// (which spells every setting its output depends on), processor
// count, and machine model (EstTime depends on it). Equal keys imply
// bit-identical results. A postmap step is keyed by its inner
// partitioner's name: its cached answer is the inner one, relabeled
// after the lookup.
type stepKey struct {
	sig    geom.Signature
	name   string
	nprocs int
	m      Machine
}

// stepArtifact is one cached step: the packed assignment plus its
// evaluated metrics with the per-run fields (Step, Migration,
// RelativeMigration, the migration share of EstTime) still unset. Both
// are shared across runs and treated as immutable by every reader; a
// run that needs the assignment unpacks a copy of its own.
type stepArtifact struct {
	a  partition.Packed
	sm StepMetrics
}

// stepCacheCap bounds the step cache. Measured over `samrbench
// -experiment all` on the four 16-step paper-scale traces at 16
// processors, which leaves 612 artifacts, an artifact takes 5.4 KB of
// heap (24 B a fragment, the metrics row, the key and the entry),
// against 37 KB when it held the unpacked Assignment. A full cache is
// then about 11 MB: it holds the working set of a full experiment
// sweep while bounding a long-running daemon.
const stepCacheCap = 2048

var stepCache = memo.New[stepKey, stepArtifact](stepCacheCap)

// flushStepCaches drops the content-addressed step cache (tests use it
// to compare memoized runs against cold ones).
func flushStepCaches() { stepCache.Flush() }

// simulateTrace is the worker-pool implementation behind
// SimulateTrace/SimulateTraceSelect, in five phases:
//  1. the choose hook runs in snapshot order, since it may carry
//     classifier state (hysteresis);
//  2. one parallel pass builds every step's whole step key;
//  3. every step is partitioned and evaluated in parallel through the
//     step cache, each writing Steps[i] by index;
//  4. one serial pass relabels the postmap steps (partition.Remap),
//     each against the last step that chose the same postmap spec;
//  5. a parallel pass over consecutive pairs chains the migration
//     metric over the per-step assignments.
//
// The result is bit-identical to the workers=1 path for any worker
// count. Cancellation propagates into every phase through pool.MapCtx
// and the partitioners' own polls; a cancelled run returns nil.
//
// Memoization: a step is a pure function of (hierarchy content,
// configuration, nprocs, machine), so each step is served from the
// process-wide content-addressed step cache: repeated content
// (regrid-sparse traces), repeated configurations (the meta-vs-static
// and ablation sweeps replay the same snapshots many times), and
// concurrent identical runs all compute each distinct step once. The
// cache holds each assignment packed and no caller ever holds cache
// state: a run unpacks its own copy of each assignment its migration
// scans read. Consecutive steps with one key have bit-identical
// hierarchies and assignments, so their migration scan short-circuits
// to its exact value of zero.
//
// Post-mapping is the one part of a step that depends on the run's
// history, so it runs after the cache, on the run's own copies:
// postmap(X) shares X's cached artifact, and phase 4 relabels it. A
// relabel moves no metric but the per-owner Loads, which it permutes,
// and migration, which phase 5 computes from the relabeled chain.
func simulateTrace(ctx context.Context, tr *trace.Trace, choose func(step int, h *grid.Hierarchy) partition.Partitioner, nprocs int, m Machine, workers int) (*Result, error) {
	res := &Result{NumProcs: nprocs}
	n := len(tr.Snapshots)
	if n == 0 {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Phase 1.
	ps := make([]partition.Partitioner, n)
	for i, snap := range tr.Snapshots {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		ps[i] = choose(snap.Step, snap.H)
	}
	res.PartitionerName = ps[0].Name()
	for i := 1; i < n; i++ {
		if ps[i].Name() != res.PartitionerName {
			res.PartitionerName = "dynamic"
			break
		}
	}

	// Phase 2.
	keys := make([]stepKey, n)
	postmap := make([]bool, n)
	err := pool.MapCtx(ctx, workers, n, func(i int) error {
		p := ps[i]
		if pm, ok := p.(*partition.PostMapped); ok {
			p, postmap[i] = pm.Inner, true
		}
		keys[i] = stepKey{sig: tr.Snapshots[i].H.Signature(), name: p.Name(), nprocs: nprocs, m: m}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// sameStep reports whether steps i and i+1 are one cached step that
	// no relabel tells apart.
	sameStep := func(i int) bool {
		return !postmap[i] && !postmap[i+1] && keys[i] == keys[i+1]
	}

	// Phase 3.
	as := make([]*partition.Assignment, n)
	res.Steps = make([]StepMetrics, n)
	err = pool.MapCtx(ctx, workers, n, func(i int) error {
		// The leader keeps the assignment it computed; the cache gets a
		// packed copy.
		var own *partition.Assignment
		art, disp, err := stepCache.GetOrCompute(ctx, keys[i], func() (stepArtifact, error) {
			a, err := ps[i].Partition(ctx, tr.Snapshots[i].H, nprocs)
			if err != nil {
				return stepArtifact{}, err
			}
			sm, err := Evaluate(ctx, tr.Snapshots[i].H, a, m)
			if err != nil {
				return stepArtifact{}, err
			}
			packed, err := partition.Pack(a)
			if err != nil {
				return stepArtifact{}, fmt.Errorf("sim: step %d: %w", tr.Snapshots[i].Step, err)
			}
			own = a
			return stepArtifact{a: packed, sm: sm}, nil
		})
		if err != nil {
			return err
		}
		if disp != memo.Miss {
			stepsMemoized.Add(1)
		}
		// Phases 4 and 5 read step i's assignment only when a neighbour
		// is a different step.
		if (i > 0 && !sameStep(i-1)) || (i+1 < n && !sameStep(i)) {
			if own == nil {
				own = art.a.Unpack()
			}
			as[i] = own
		}
		sm := art.sm
		// The artifact (and its Loads vector) is shared cache state;
		// the Result hands Loads to callers the public API makes no
		// immutability promise to, so each step gets its own copy.
		sm.Loads = append([]int64(nil), sm.Loads...)
		sm.Step = tr.Snapshots[i].Step
		res.Steps[i] = sm
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 4. last maps a postmap spec to its latest step. A spec's
	// first step keeps its labels; a one-step trace has nothing to
	// relabel against (and no assignment copy).
	last := make(map[string]int)
	for i := range ps {
		if !postmap[i] {
			continue
		}
		name := ps[i].Name()
		if j, ok := last[name]; ok {
			a, err := partition.Remap(ctx, tr.Snapshots[j].H, as[j], tr.Snapshots[i].H, as[i])
			if err != nil {
				return nil, err
			}
			res.Steps[i].Loads = relabelLoads(res.Steps[i].Loads, as[i], a)
			as[i] = a
		}
		last[name] = i
	}

	// Phase 5. Consecutive steps with one key have content-identical
	// hierarchies and bit-identical assignments, so nothing moves —
	// every point keeps its owner — and the overlap scan short-circuits
	// to its exact result of zero.
	err = pool.MapCtx(ctx, workers, n-1, func(j int) error {
		i := j + 1
		sm := &res.Steps[i]
		if sameStep(j) {
			migrationsShortCut.Add(1)
		} else {
			sm.Migration = Migration(tr.Snapshots[i-1].H, tr.Snapshots[i].H, as[i-1], as[i])
		}
		if np := tr.Snapshots[i-1].H.NumPoints(); np > 0 {
			sm.RelativeMigration = float64(sm.Migration) / float64(np)
		}
		sm.EstTime += float64(sm.Migration) / m.MigrationBandwidth
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// relabelLoads returns the per-owner loads of from, an assignment whose
// loads are loads, under the labels of to, which relabels from's owners
// fragment for fragment. Every other metric Evaluate reports is the
// same under any relabeling (TestEvaluateIsRelabelInvariant).
func relabelLoads(loads []int64, from, to *partition.Assignment) []int64 {
	out := make([]int64, len(loads))
	for k, f := range from.Fragments {
		out[to.Fragments[k].Owner] = loads[f.Owner]
	}
	return out
}
