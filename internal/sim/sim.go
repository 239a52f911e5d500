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
// Architecture: the simulator is built for throughput. Geometry scans
// (halo imports, inter-level footprints, migration overlap) go through
// geom.BoxIndex instead of all-pairs intersection, and the per-snapshot
// work units of a trace run fan out over a bounded worker pool
// (internal/pool) in four phases — sequential partitioner choice,
// partitioning (parallel unless a chosen partitioner is stateful),
// parallel per-step evaluation writing into pre-sized slots by index,
// and migration chaining over consecutive precomputed assignments. The
// phases are arranged so the output is bit-identical to a sequential
// run at any worker count. Every phase honours the caller's context:
// cancellation stops the pool dispatch, aborts partitioners mid-flight,
// and returns a nil result with the context's error.
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
	commPerProc := sc.comm
	msgsPerProc := sc.msgs

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
	buf := sc.buf

	// Intra-level ghost exchange: for every fragment, the one-cell halo
	// cells covered by a different owner's fragment are imported every
	// local step. The halo overlap |(Grow(1) \ Box) x g| is computed as
	// |Grow(1) x g| - |Box x g| (the halo pieces tile exactly that
	// difference), avoiding the per-pair halo BoxList rebuild. Messages
	// are aggregated per (receiver, sender) pair per local step — real
	// ghost-exchange implementations pack all fragment transfers
	// between two processors into one message — in the flat pair set.
	for l, frags := range perLevel {
		steps := h.StepFactor(l)
		sc.pairs.reset(nprocs)
		for i, f := range frags {
			if i%256 == 0 {
				if err := checkCtx(ctx); err != nil {
					sc.buf = buf
					return StepMetrics{}, err
				}
			}
			grown := f.Box.Grow(1)
			buf = indexes[l].AppendQuery(buf[:0], grown)
			for _, j := range buf {
				g := frags[j]
				if i == j || f.Owner == g.Owner {
					continue
				}
				vol := grown.Intersect(g.Box).Volume() - f.Box.Intersect(g.Box).Volume()
				if vol > 0 {
					sm.IntraLevelComm += vol * steps
					commPerProc[f.Owner] += vol * steps
					sc.pairs.add(f.Owner*nprocs + g.Owner)
				}
			}
		}
		sm.Messages += int64(len(sc.pairs.keys)) * steps
		for _, k := range sc.pairs.keys {
			msgsPerProc[k/nprocs] += steps
		}
	}

	// Inter-level transfers: fine fragments exchange boundary data and
	// restriction results with the underlying coarse fragments once per
	// coarse local step when the owners differ.
	for l := 1; l < len(h.Levels); l++ {
		coarseSteps := h.StepFactor(l - 1)
		sc.pairs.reset(nprocs)
		for fi, f := range perLevel[l] {
			if fi%256 == 0 {
				if err := checkCtx(ctx); err != nil {
					sc.buf = buf
					return StepMetrics{}, err
				}
			}
			under := f.Box.Coarsen(h.RefRatio)
			buf = indexes[l-1].AppendQuery(buf[:0], under)
			for _, ci := range buf {
				c := perLevel[l-1][ci]
				if f.Owner == c.Owner {
					continue
				}
				vol := under.Intersect(c.Box).Volume()
				if vol > 0 {
					sm.InterLevelComm += vol * coarseSteps
					commPerProc[f.Owner] += vol * coarseSteps
					sc.pairs.add(f.Owner*nprocs + c.Owner)
				}
			}
		}
		sm.Messages += int64(len(sc.pairs.keys)) * coarseSteps
		for _, k := range sc.pairs.keys {
			msgsPerProc[k/nprocs] += coarseSteps
		}
	}
	sc.buf = buf

	if w := h.Workload(); w > 0 {
		sm.RelativeComm = float64(sm.TotalComm()) / float64(w)
	}

	// Execution-time estimate: slowest processor's compute plus
	// communication (synchronization couples them, per the paper's
	// discussion of total = computational + communicational imbalance).
	var worst float64
	for p := 0; p < a.NumProcs; p++ {
		t := float64(sm.Loads[p])*m.CellTime +
			float64(commPerProc[p])/m.PointBandwidth +
			float64(msgsPerProc[p])*m.MessageLatency
		if t > worst {
			worst = t
		}
	}
	sm.EstTime = worst
	return sm, nil
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

// stateful reports whether a partitioner carries state between
// Partition calls. The marker is the Reset method every stateful
// partitioner (the post-mapping wrapper) already exposes so experiment
// replays can clear it; stateless partitioners are pure functions of
// their configuration and may run concurrently, even on a shared
// instance.
func stateful(p partition.Partitioner) bool {
	_, ok := p.(interface{ Reset() })
	return ok
}

// Process-wide memoization savings of the trace pipeline, surfaced by
// /v1/stats and samrbench -cachestats: snapshots whose partitioning,
// evaluation, or migration scan was answered by the content-addressed
// step cache (or an identical in-flight step) instead of recomputed.
var (
	partitionsMemoized  atomic.Uint64
	evaluationsMemoized atomic.Uint64
	migrationsShortCut  atomic.Uint64
)

// MemoStats returns the cumulative memoization counters of the trace
// pipeline: partition calls, Evaluate calls, and migration scans
// answered without recomputation because an identical
// (signature, partitioner, nprocs, machine) step had already been
// computed — in the same run, an earlier run, or a concurrent one.
// The migration counter covers consecutive steps sharing one
// assignment, between which exactly zero points move.
func MemoStats() (partitions, evaluations, migrations uint64) {
	return partitionsMemoized.Load(), evaluationsMemoized.Load(), migrationsShortCut.Load()
}

// stepKey addresses the content-addressed result of partitioning and
// evaluating one snapshot: hierarchy content hash, partitioner Name()
// (which spells every setting its output depends on), processor
// count, and machine model (EstTime depends on it). Equal keys imply bit-identical results for stateless
// partitioners, which is the only kind ever cached.
type stepKey struct {
	sig    geom.Signature
	name   string
	nprocs int
	m      Machine
}

// stepArtifact is one cached step: the assignment plus its evaluated
// metrics with the per-run fields (Step, Migration, RelativeMigration,
// the migration share of EstTime) still unset. Both are shared across
// runs and treated as immutable by every reader.
type stepArtifact struct {
	a  *partition.Assignment
	sm StepMetrics
}

// stepCacheCap bounds the step cache: artifacts are a few KB each (an
// assignment's fragments plus a metrics row), so the bound comfortably
// holds the working set of a full experiment sweep while bounding a
// long-running daemon.
const stepCacheCap = 2048

var stepCache = memo.New[stepKey, stepArtifact](stepCacheCap)

// flushStepCaches drops the content-addressed step cache (tests use it
// to compare memoized runs against cold ones).
func flushStepCaches() { stepCache.Flush() }

// simulateTrace is the worker-pool implementation behind
// SimulateTrace/SimulateTraceSelect. The per-snapshot work units are
// independent except for two sequential strands, which are preserved
// exactly: the choose hook may carry classifier state (hysteresis), so
// it runs in snapshot order up front; and stateful partitioners chain
// assignments, so partitioning falls back to snapshot order when any
// chosen partitioner is stateful. Evaluation — the bulk of the cost —
// always fans out, with each goroutine writing Steps[i] by index, and a
// cheap sequential-equivalent pass chains the migration metric over the
// precomputed per-step assignments. The result is bit-identical to the
// workers=1 path for any worker count. Cancellation propagates into
// every phase through pool.MapCtx and the partitioners' own polls; a
// cancelled run returns nil.
//
// Memoization: a stateless partitioner's step is a pure function of
// (hierarchy content, configuration, nprocs, machine), so each step is
// served from the process-wide content-addressed step cache: repeated
// content (regrid-sparse traces), repeated configurations (the
// meta-vs-static and ablation sweeps replay the same snapshots many
// times), and concurrent identical runs all compute each distinct step
// once. Steps sharing a key share one Assignment and metrics row
// (immutable by contract); the migration scan short-circuits to its
// exact value of zero when consecutive steps share one assignment.
// Stateful partitioners (the post-mapping wrapper) keep the full
// sequential chain and are never cached: their output depends on
// carried state, not content alone.
func simulateTrace(ctx context.Context, tr *trace.Trace, choose func(step int, h *grid.Hierarchy) partition.Partitioner, nprocs int, m Machine, workers int) (*Result, error) {
	res := &Result{NumProcs: nprocs}
	n := len(tr.Snapshots)
	if n == 0 {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Phase 1 (sequential): per-step partitioner choice.
	ps := make([]partition.Partitioner, n)
	anyStateful := false
	for i, snap := range tr.Snapshots {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		ps[i] = choose(snap.Step, snap.H)
		anyStateful = anyStateful || stateful(ps[i])
	}
	res.PartitionerName = ps[0].Name()
	for i := 1; i < n; i++ {
		if ps[i].Name() != res.PartitionerName {
			res.PartitionerName = "dynamic"
			break
		}
	}

	// Content signatures and canonical names for the memo keys (pure,
	// index-slotted). A run whose every step is stateful never consults
	// the caches, so it skips the hashing entirely.
	allStateful := true
	for i := range ps {
		if !stateful(ps[i]) {
			allStateful = false
			break
		}
	}
	sigs := make([]geom.Signature, n)
	names := make([]string, n)
	var err error
	if !allStateful {
		err = pool.MapCtx(ctx, workers, n, func(i int) error {
			if stateful(ps[i]) {
				// Stateful steps never consult a cache: their key slots
				// stay zero and unread.
				return nil
			}
			sigs[i] = tr.Snapshots[i].H.Signature()
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i := range ps {
			if !stateful(ps[i]) {
				names[i] = ps[i].Name()
			}
		}
	}

	// Phase 2+3: partition and evaluate every snapshot. A stateless
	// partitioner's step is a pure function of (content, configuration,
	// nprocs, machine), so it is served from the process-wide
	// content-addressed cache — computed at most once across runs, and
	// across concurrent runs via the cache's singleflight. Stateful
	// partitioners run sequentially in snapshot order and are never
	// cached.
	as := make([]*partition.Assignment, n)
	res.Steps = make([]StepMetrics, n)
	cachedStep := func(i int) error {
		key := stepKey{sig: sigs[i], name: names[i], nprocs: nprocs, m: m}
		art, disp, err := stepCache.GetOrCompute(ctx, key, func() (stepArtifact, error) {
			a, err := ps[i].Partition(ctx, tr.Snapshots[i].H, nprocs)
			if err != nil {
				return stepArtifact{}, err
			}
			sm, err := Evaluate(ctx, tr.Snapshots[i].H, a, m)
			if err != nil {
				return stepArtifact{}, err
			}
			return stepArtifact{a: a, sm: sm}, nil
		})
		if err != nil {
			return err
		}
		if disp != memo.Miss {
			partitionsMemoized.Add(1)
			evaluationsMemoized.Add(1)
		}
		as[i] = art.a
		sm := art.sm
		// The artifact (and its Loads vector) is shared cache state;
		// the Result hands Loads to callers the public API makes no
		// immutability promise to, so each step gets its own copy.
		sm.Loads = append([]int64(nil), sm.Loads...)
		res.Steps[i] = sm
		return nil
	}
	// Sequential strand: only the stateful steps chain carried state,
	// and their chaining depends solely on their own relative order, so
	// they partition in snapshot order here while every stateless step
	// (partition + evaluation, via the cache) fans out below.
	if anyStateful {
		for i := range tr.Snapshots {
			if !stateful(ps[i]) {
				continue
			}
			a, err := ps[i].Partition(ctx, tr.Snapshots[i].H, nprocs)
			if err != nil {
				return nil, err
			}
			as[i] = a
		}
	}
	err = pool.MapCtx(ctx, workers, n, func(i int) error {
		if stateful(ps[i]) {
			sm, err := Evaluate(ctx, tr.Snapshots[i].H, as[i], m)
			if err != nil {
				return err
			}
			res.Steps[i] = sm
			return nil
		}
		return cachedStep(i)
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Steps {
		res.Steps[i].Step = tr.Snapshots[i].Step
	}

	// Phase 4 (parallel over consecutive pairs): chain the migration
	// metric over the precomputed assignments. Consecutive steps
	// sharing one cached assignment over content-identical hierarchies
	// move nothing — every point keeps its owner — so the overlap scan
	// short-circuits to its exact result of zero.
	err = pool.MapCtx(ctx, workers, n-1, func(j int) error {
		i := j + 1
		sm := &res.Steps[i]
		if as[i-1] == as[i] {
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
