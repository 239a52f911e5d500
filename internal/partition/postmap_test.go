package partition

import (
	"context"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
)

// relabelingPartitioner wraps an inner partitioner and rotates its part
// labels every call — a worst case for migration that post-mapping must
// undo completely.
type relabelingPartitioner struct {
	inner Partitioner
	calls int
}

func (r *relabelingPartitioner) Name() string { return "relabel(" + r.inner.Name() + ")" }

func (r *relabelingPartitioner) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	a, err := r.inner.Partition(ctx, h, nprocs)
	if err != nil {
		return nil, err
	}
	shift := r.calls
	r.calls++
	out := &Assignment{NumProcs: nprocs, Fragments: make([]Fragment, len(a.Fragments))}
	for i, f := range a.Fragments {
		f.Owner = (f.Owner + shift) % nprocs
		out.Fragments[i] = f
	}
	return out, nil
}

// migrationBetween counts points that changed owner between two
// assignments of the same hierarchy.
func migrationBetween(h *grid.Hierarchy, a, b *Assignment) int64 {
	var moved int64
	for l := range h.Levels {
		ao := a.LevelBoxes(l)
		bo := b.LevelBoxes(l)
		var stayed int64
		for p, pb := range ao {
			if cb, ok := bo[p]; ok {
				stayed += geom.OverlapVolume(pb, cb)
			}
		}
		moved += h.Levels[l].NumPoints() - stayed
	}
	return moved
}

func TestPostMappedUndoesRelabeling(t *testing.T) {
	h := testHierarchy()
	pm := NewPostMapped(&relabelingPartitioner{inner: NewDomainSFC()})
	a1 := mustPartition(t, pm, h, 4)
	a2 := mustPartition(t, pm, h.Clone(), 4)
	if err := a2.Validate(h); err != nil {
		t.Fatal(err)
	}
	// Identical hierarchy + label-rotated inner: post-mapping must
	// restore the previous labels exactly.
	if mv := migrationBetween(h, a1, a2); mv != 0 {
		t.Errorf("post-mapped migration = %d, want 0", mv)
	}
}

func TestPostMappedReducesTotalMigration(t *testing.T) {
	// On a drifting hierarchy, post-mapping must not increase the total
	// migration of the run (per-step comparisons are not meaningful:
	// the two label histories diverge, and the greedy remap optimizes
	// each transition against its own previous labels).
	inner := NewNatureFable()
	pm := NewPostMapped(NewNatureFable())
	var prevRaw, prevPM *Assignment
	var prevH *grid.Hierarchy
	var rawTotal, pmTotal int64
	for step := 0; step < 8; step++ {
		h := grid.NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
		s := step * 3
		h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{
			geom.NewBox2(4+s, 4, 24+s, 24),
		}})
		raw := mustPartition(t, inner, h, 6)
		mapped := mustPartition(t, pm, h, 6)
		if err := mapped.Validate(h); err != nil {
			t.Fatal(err)
		}
		if prevH != nil {
			rawTotal += crossMigration(prevH, h, prevRaw, raw)
			pmTotal += crossMigration(prevH, h, prevPM, mapped)
		}
		prevRaw, prevPM, prevH = raw, mapped, h
	}
	if pmTotal > rawTotal {
		t.Errorf("post-mapped total migration %d > raw %d", pmTotal, rawTotal)
	}
}

// crossMigration counts shared points whose owner changed across a
// hierarchy transition (mirrors sim.Migration without importing sim).
func crossMigration(hPrev, hCur *grid.Hierarchy, aPrev, aCur *Assignment) int64 {
	levels := len(hPrev.Levels)
	if len(hCur.Levels) < levels {
		levels = len(hCur.Levels)
	}
	var moved int64
	for l := 0; l < levels; l++ {
		shared := geom.OverlapVolume(hPrev.Levels[l].Boxes, hCur.Levels[l].Boxes)
		po := aPrev.LevelBoxes(l)
		co := aCur.LevelBoxes(l)
		var stayed int64
		for p, pb := range po {
			if cb, ok := co[p]; ok {
				stayed += geom.OverlapVolume(pb, cb)
			}
		}
		moved += shared - stayed
	}
	return moved
}

func TestPostMappedPreservesDecomposition(t *testing.T) {
	// Post-mapping only relabels: loads must be a permutation of the
	// inner partitioner's loads.
	h := testHierarchy()
	inner := NewDomainSFC()
	pm := NewPostMapped(NewDomainSFC())
	mustPartition(t, pm, h, 4) // prime the previous state
	shifted := h.Clone()
	shifted.Levels[1].Boxes[0] = geom.NewBox2(6, 4, 18, 16) // two cells to the right
	raw := mustPartition(t, inner, shifted, 4)
	mapped := mustPartition(t, pm, shifted, 4)
	rawLoads := raw.Loads(shifted)
	mapLoads := mapped.Loads(shifted)
	counts := map[int64]int{}
	for _, l := range rawLoads {
		counts[l]++
	}
	for _, l := range mapLoads {
		counts[l]--
	}
	for v, c := range counts {
		if c != 0 {
			t.Errorf("load multiset changed at %d (delta %d)", v, c)
		}
	}
}

func TestPostMappedReset(t *testing.T) {
	h := testHierarchy()
	pm := NewPostMapped(&relabelingPartitioner{inner: NewDomainSFC()})
	mustPartition(t, pm, h, 4)
	pm.Reset()
	// After reset the wrapper must not try to align with forgotten
	// state; it simply passes the inner result through.
	a := mustPartition(t, pm, h, 4)
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestPostMappedProcCountChange(t *testing.T) {
	// Changing the processor count between calls must not panic; the
	// wrapper skips remapping when shapes differ.
	h := testHierarchy()
	pm := NewPostMapped(NewDomainSFC())
	mustPartition(t, pm, h, 4)
	a := mustPartition(t, pm, h, 8)
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
}

func TestRemapLabelsHandlesEmptyParts(t *testing.T) {
	// More processors than work: some parts are empty; the permutation
	// must still be a bijection.
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 4, 4), 2)
	pm := NewPostMapped(NewDomainSFC())
	mustPartition(t, pm, h, 8)
	a := mustPartition(t, pm, h, 8)
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, f := range a.Fragments {
		seen[f.Owner] = true
	}
	for o := range seen {
		if o < 0 || o >= 8 {
			t.Errorf("owner %d out of range", o)
		}
	}
}
