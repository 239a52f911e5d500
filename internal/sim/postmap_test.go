package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sfc"
	"samr/internal/trace"
)

// refPostMapped is the stateful post-mapping wrapper the pipeline's
// relabel pass replaced, kept as its oracle: one instance carries the
// previous call's answer, and every call relabels the inner answer
// against it. (partition.TestRemapMatchesReference
// holds Remap itself to the old relabel body.)
type refPostMapped struct {
	pm    *partition.PostMapped
	prevA *partition.Assignment
}

func (r *refPostMapped) Name() string { return r.pm.Name() }

func (r *refPostMapped) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*partition.Assignment, error) {
	a, err := r.pm.Inner.Partition(ctx, h, nprocs)
	if err != nil {
		return nil, err
	}
	if a, err = partition.Remap(ctx, r.prevA, a); err != nil {
		return nil, err
	}
	r.prevA = a
	return a, nil
}

// statefulChooser wraps choose so that every postmap instance it
// returns is replaced by one stateful reference instance per postmap
// instance: the chaining the pipeline had when the shared instance
// carried its history.
func statefulChooser(choose func(int, *grid.Hierarchy) partition.Partitioner) func(int, *grid.Hierarchy) partition.Partitioner {
	refs := map[*partition.PostMapped]*refPostMapped{}
	return func(step int, h *grid.Hierarchy) partition.Partitioner {
		p := choose(step, h)
		pm, ok := p.(*partition.PostMapped)
		if !ok {
			return p
		}
		if refs[pm] == nil {
			refs[pm] = &refPostMapped{pm: pm}
		}
		return refs[pm]
	}
}

// staticChooser always returns p.
func staticChooser(p partition.Partitioner) func(int, *grid.Hierarchy) partition.Partitioner {
	return func(int, *grid.Hierarchy) partition.Partitioner { return p }
}

// metaChooser returns a fresh meta-partitioner's per-step selection.
func metaChooser(nprocs int, m Machine) func(int, *grid.Hierarchy) partition.Partitioner {
	meta := core.NewMetaPartitioner(core.DefaultPartitionCost)
	return func(_ int, h *grid.Hierarchy) partition.Partitioner { return meta.Select(h, m.TimeSlot(h, nprocs)) }
}

// requirePostmapMatchesReference runs tr through the pipeline cold at
// one worker, then warm at four, and holds both runs to the sequential,
// uncached reference over stateful instances. mk returns a fresh
// chooser per run.
func requirePostmapMatchesReference(t *testing.T, where string, tr *trace.Trace, mk func() func(int, *grid.Hierarchy) partition.Partitioner, nprocs int) {
	t.Helper()
	m := DefaultMachine()
	want := naiveSelect(t, tr, statefulChooser(mk()), nprocs, m)
	flushStepCaches()
	for _, workers := range []int{1, 4} {
		got := mustSimulate(t, tr, mk(), nprocs, m, workers)
		if !reflect.DeepEqual(got, want) {
			for i := range want.Steps {
				if i < len(got.Steps) && !reflect.DeepEqual(got.Steps[i], want.Steps[i]) {
					t.Fatalf("%s, nprocs %d, workers %d: step %d diverged from the stateful reference\ngot  %+v\nwant %+v", where, nprocs, workers, i, got.Steps[i], want.Steps[i])
				}
			}
			t.Fatalf("%s, nprocs %d, workers %d: result diverged from the stateful reference", where, nprocs, workers)
		}
	}
}

// postmapCases are the static postmap choosers of the oracle, plus the
// meta-partitioner, whose stable holds a postmap member.
func postmapCases(nprocs int) map[string]func() func(int, *grid.Hierarchy) partition.Partitioner {
	return map[string]func() func(int, *grid.Hierarchy) partition.Partitioner{
		"postmap(domain)": func() func(int, *grid.Hierarchy) partition.Partitioner {
			return staticChooser(partition.NewPostMapped(&partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2}))
		},
		"postmap(nature+fable)": func() func(int, *grid.Hierarchy) partition.Partitioner {
			return staticChooser(partition.NewPostMapped(partition.NewNatureFable()))
		},
		"meta": func() func(int, *grid.Hierarchy) partition.Partitioner { return metaChooser(nprocs, DefaultMachine()) },
	}
}

// TestPostmapMatchesStatefulReference is the oracle of the relabel
// pass: static postmap runs and meta-partitioner runs produce
// StepMetrics bit-identical to the stateful wrapper's sequential chain,
// on the four quick traces at 16 processors and at more processors
// than their 16² bases have units of edge 2, where some parts are
// empty, and on the paper configuration for 16 steps at 16 processors
// unless -short.
func TestPostmapMatchesStatefulReference(t *testing.T) {
	withProcs(t, 4)
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(bg, app)
		if err != nil {
			t.Fatal(err)
		}
		for _, nprocs := range []int{16, 80} {
			for spec, mk := range postmapCases(nprocs) {
				requirePostmapMatchesReference(t, "quick "+app+" "+spec, tr, mk, nprocs)
			}
		}
	}
	if !testing.Short() {
		cfg := apps.PaperConfig()
		cfg.BaseSize, cfg.MaxLevels = 32, 5
		for _, app := range apps.Names {
			tr, err := apps.Generate(bg, app, cfg, 16)
			if err != nil {
				t.Fatal(err)
			}
			for spec, mk := range postmapCases(16) {
				requirePostmapMatchesReference(t, "paper-16-steps "+app+" "+spec, tr, mk, 16)
			}
		}
	}
}

// randomChainHierarchy builds a random valid hierarchy on a 16² base:
// one level-1 patch, and a nested level-2 patch half the time.
func randomChainHierarchy(r *rand.Rand) *grid.Hierarchy {
	h := flat(16)
	x, y := r.Intn(20), r.Intn(20)
	b1 := geom.NewBox2(x, y, min(x+4+r.Intn(8), 32), min(y+4+r.Intn(8), 32))
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{b1}})
	if r.Intn(2) == 0 {
		fine := b1.Refine(2)
		b2 := geom.NewBox2(fine.Lo[0]+2, fine.Lo[1]+2, fine.Lo[0]+10, fine.Lo[1]+10).Intersect(fine)
		if !b2.Empty() {
			h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{b2}})
		}
	}
	return h
}

// randomChainLevel carves one to three disjoint tiles for level l out
// of one refined parent box of h's level l-1, so the level nests.
func randomChainLevel(r *rand.Rand, h *grid.Hierarchy, l int) geom.BoxList {
	parent := h.Levels[l-1].Boxes[r.Intn(len(h.Levels[l-1].Boxes))].Refine(h.RefRatio)
	n := 1 + r.Intn(3)
	w := (parent.Hi[0] - parent.Lo[0]) / n
	if w < 1 {
		w, n = 1, 1
	}
	var out geom.BoxList
	for i := 0; i < n; i++ {
		b := parent
		b.Lo[0] = parent.Lo[0] + i*w
		b.Hi[0] = b.Lo[0] + w
		if r.Intn(2) == 0 && b.Hi[1]-b.Lo[1] > 2 {
			b.Hi[1] -= r.Intn(b.Hi[1] - b.Lo[1] - 1)
		}
		if !b.Empty() {
			out = append(out, b)
		}
	}
	return out
}

// randomChainDelta is a random valid regrid step of h: level 0 kept,
// each finer level kept (when its parent is) or replaced, and a level
// appended or dropped at the tail now and then.
func randomChainDelta(r *rand.Rand, h *grid.Hierarchy) []grid.LevelDelta {
	n := len(h.Levels)
	switch {
	case n < 4 && r.Intn(3) == 0:
		n++
	case n > 1 && r.Intn(4) == 0:
		n--
	}
	step := make([]grid.LevelDelta, n)
	step[0] = grid.Keep()
	cand := &grid.Hierarchy{Domain: h.Domain, RefRatio: h.RefRatio, Levels: []grid.Level{h.Levels[0]}}
	for l := 1; l < n; l++ {
		if l < len(h.Levels) && step[l-1].Keep && r.Intn(2) == 0 {
			step[l] = grid.Keep()
			cand.Levels = append(cand.Levels, h.Levels[l])
			continue
		}
		step[l] = grid.Replace(randomChainLevel(r, cand, l))
		cand.Levels = append(cand.Levels, grid.Level{Boxes: step[l].Boxes})
	}
	return step
}

// TestPostmapMatchesStatefulReferenceOnDeltaChains is the oracle on 60
// random regrid chains of 12 delta steps each (the shape of grid's
// delta property suite), at 16 processors, and every third chain also
// past the 64 units of edge 2 of its 16² base (the match's cost grows
// with the cube of the processor count).
func TestPostmapMatchesStatefulReferenceOnDeltaChains(t *testing.T) {
	withProcs(t, 4)
	r := rand.New(rand.NewSource(47))
	for chain := 0; chain < 60; chain++ {
		h := randomChainHierarchy(r)
		tr := &trace.Trace{App: fmt.Sprintf("chain-%d", chain)}
		tr.Append(0, 0, h)
		for step := 1; step <= 12; step++ {
			next, err := h.WithDelta(randomChainDelta(r, h))
			if err != nil {
				t.Fatalf("chain %d step %d: %v", chain, step, err)
			}
			h = next
			tr.Append(step, float64(step), h)
		}
		for _, nprocs := range []int{16, 80} {
			if nprocs > 16 && chain%3 != 0 {
				continue
			}
			for spec, mk := range postmapCases(nprocs) {
				requirePostmapMatchesReference(t, tr.App+" "+spec, tr, mk, nprocs)
			}
		}
	}
}

// TestEvaluateIsRelabelInvariant is the property the relabel pass rests
// on: permuting an assignment's owners changes no metric Evaluate
// reports except Loads, which it permutes the same way. Assignments
// come from every partitioner family on random valid hierarchies.
func TestEvaluateIsRelabelInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := DefaultMachine()
	families := []partition.Partitioner{partition.NewDomainSFC(), partition.NewNatureFable(), partition.NewPatchBased()}
	for trial := 0; trial < 40; trial++ {
		h := randomChainHierarchy(r)
		for l := len(h.Levels); l < 4 && r.Intn(2) == 0; l++ {
			h.Levels = append(h.Levels, grid.Level{Boxes: randomChainLevel(r, h, l)})
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		np := 1 + r.Intn(40)
		for _, p := range families {
			a := mustPartition(t, p, h, np)
			perm := r.Perm(np)
			relabeled := &partition.Assignment{NumProcs: np, Fragments: make([]partition.Fragment, len(a.Fragments))}
			for i, f := range a.Fragments {
				f.Owner = perm[f.Owner]
				relabeled.Fragments[i] = f
			}
			want, got := mustEvaluate(t, h, a, m), mustEvaluate(t, h, relabeled, m)
			wantLoads := make([]int64, np)
			for q, l := range want.Loads {
				wantLoads[perm[q]] = l
			}
			if !reflect.DeepEqual(got.Loads, wantLoads) {
				t.Fatalf("trial %d, %s, nprocs %d: relabeled loads %v, want the permuted %v", trial, p.Name(), np, got.Loads, wantLoads)
			}
			if got.Loads, want.Loads = nil, nil; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s, nprocs %d: relabeling moved a metric\ngot  %+v\nwant %+v", trial, p.Name(), np, got, want)
			}
		}
	}
}

// TestMixedPostmapPairsAreScanned pins phase 5's postmap guard. A run
// that alternates domain-hilbert-u2 and postmap(domain-hilbert-u2) puts
// a raw step and a relabeled step under one step key wherever the
// content holds across a pair (a postmap step is keyed by its inner
// spec), and a relabel made against the last postmap step, from before
// a content change, moves labels the raw step keeps. Every pair's
// migration must be migrationReference's over the run's own
// assignments, on the four quick traces, at one worker and at four;
// the test fails unless some same-key pair moves cells, so the short
// cut's zero would be wrong there.
func TestMixedPostmapPairsAreScanned(t *testing.T) {
	withProcs(t, 4)
	const nprocs = 16
	m := DefaultMachine()
	inner := &partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2}
	pm := partition.NewPostMapped(inner)
	choose := func() func(int, *grid.Hierarchy) partition.Partitioner {
		i := 0
		return func(int, *grid.Hierarchy) partition.Partitioner {
			i++
			if i%2 == 1 {
				return inner
			}
			return pm
		}
	}
	guarded := 0
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(bg, app)
		if err != nil {
			t.Fatal(err)
		}
		ref := statefulChooser(choose())
		as := make([]*partition.Assignment, len(tr.Snapshots))
		for i, snap := range tr.Snapshots {
			as[i] = mustPartition(t, ref(snap.Step, snap.H), snap.H, nprocs)
		}
		for _, workers := range []int{1, 4} {
			flushStepCaches()
			res := mustSimulate(t, tr, choose(), nprocs, m, workers)
			for i := 1; i < len(tr.Snapshots); i++ {
				hPrev, h := tr.Snapshots[i-1].H, tr.Snapshots[i].H
				want := migrationReference(hPrev, h, as[i-1], as[i])
				if got := res.Steps[i].Migration; got != want {
					t.Fatalf("%s, workers %d: pair %d→%d migration %d, want %d", app, workers, i-1, i, got, want)
				}
				if workers == 1 && want != 0 && hPrev.Signature() == h.Signature() {
					guarded++
				}
			}
		}
	}
	if guarded == 0 {
		t.Fatal("no same-key pair of a raw and a relabeled step moved a cell: the guard is untested")
	}
	t.Logf("%d same-key raw/relabeled pairs move cells", guarded)
}
