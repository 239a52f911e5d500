package partition

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"samr/internal/apps"
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

// remapChain partitions hs in order with inner and relabels each answer
// with Remap against the previous relabeled one: what every caller of
// post-mapping does with its own history.
func remapChain(t testing.TB, inner Partitioner, hs []*grid.Hierarchy, np int) []*Assignment {
	t.Helper()
	out := make([]*Assignment, len(hs))
	for i, h := range hs {
		a := mustPartition(t, inner, h, np)
		if i > 0 {
			var err error
			if a, err = Remap(context.Background(), hs[i-1], out[i-1], h, a); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = a
	}
	return out
}

func TestPostMappedUndoesRelabeling(t *testing.T) {
	h := testHierarchy()
	as := remapChain(t, &relabelingPartitioner{inner: NewDomainSFC()}, []*grid.Hierarchy{h, h.Clone()}, 4)
	if err := as[1].Validate(h); err != nil {
		t.Fatal(err)
	}
	// Identical hierarchy + label-rotated inner: post-mapping must
	// restore the previous labels exactly.
	if mv := migrationBetween(h, as[0], as[1]); mv != 0 {
		t.Errorf("post-mapped migration = %d, want 0", mv)
	}
}

func TestPostMappedReducesTotalMigration(t *testing.T) {
	// On a drifting hierarchy, post-mapping must not increase the total
	// migration of the run (per-step comparisons are not meaningful:
	// the two label histories diverge, and the remap optimizes each
	// transition against its own previous labels).
	var hs []*grid.Hierarchy
	for step := 0; step < 8; step++ {
		h := grid.NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
		s := step * 3
		h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{
			geom.NewBox2(4+s, 4, 24+s, 24),
		}})
		hs = append(hs, h)
	}
	mapped := remapChain(t, NewNatureFable(), hs, 6)
	var rawTotal, pmTotal int64
	for i := 1; i < len(hs); i++ {
		if err := mapped[i].Validate(hs[i]); err != nil {
			t.Fatal(err)
		}
		raw := mustPartition(t, NewNatureFable(), hs[i], 6)
		prevRaw := mustPartition(t, NewNatureFable(), hs[i-1], 6)
		rawTotal += crossMigration(hs[i-1], hs[i], prevRaw, raw)
		pmTotal += crossMigration(hs[i-1], hs[i], mapped[i-1], mapped[i])
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
	shifted := h.Clone()
	shifted.Levels[1].Boxes[0] = geom.NewBox2(6, 4, 18, 16) // two cells to the right
	raw := mustPartition(t, NewDomainSFC(), shifted, 4)
	mapped := remapChain(t, NewDomainSFC(), []*grid.Hierarchy{h, shifted}, 4)[1]
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

func TestPostMappedProcCountChange(t *testing.T) {
	// A previous assignment for another processor count has no labels
	// to align with: Remap hands the answer back untouched.
	h := testHierarchy()
	prev := mustPartition(t, NewDomainSFC(), h, 4)
	a := mustPartition(t, NewDomainSFC(), h, 8)
	got, err := Remap(context.Background(), h, prev, h, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Error("Remap across processor counts did not return its input")
	}
	if got, err := Remap(context.Background(), nil, nil, h, a); err != nil || got != a {
		t.Errorf("Remap with no history = (%p, %v), want its input %p", got, err, a)
	}
}

func TestRemapLabelsHandlesEmptyParts(t *testing.T) {
	// More processors than work: some parts are empty; the permutation
	// must still be a bijection.
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 4, 4), 2)
	a := remapChain(t, &relabelingPartitioner{inner: NewDomainSFC()}, []*grid.Hierarchy{h, h}, 8)[1]
	if err := a.Validate(h); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, f := range a.Fragments {
		if seen[f.Owner] {
			t.Errorf("owner %d holds two fragments after the remap", f.Owner)
		}
		seen[f.Owner] = true
		if f.Owner < 0 || f.Owner >= 8 {
			t.Errorf("owner %d out of range", f.Owner)
		}
	}
}

// refPostMapped is the stateful post-mapping wrapper Remap replaced,
// kept as its oracle: it carries the previous call's hierarchy and
// answer and relabels with the three-matrix remap body below.
type refPostMapped struct {
	inner Partitioner
	prevH *grid.Hierarchy
	prevA *Assignment
}

func (pm *refPostMapped) Name() string { return "ref-postmap(" + pm.inner.Name() + ")" }

func (pm *refPostMapped) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	a, err := pm.inner.Partition(ctx, h, nprocs)
	if err != nil {
		return nil, err
	}
	if pm.prevA != nil && pm.prevA.NumProcs == nprocs {
		perm := refRemapLabels(pm.prevH, pm.prevA, h, a)
		remapped := &Assignment{NumProcs: nprocs, Fragments: make([]Fragment, len(a.Fragments))}
		for i, f := range a.Fragments {
			f.Owner = perm[f.Owner]
			remapped.Fragments[i] = f
		}
		a = remapped
	}
	pm.prevH = h.Clone()
	pm.prevA = a
	return a, nil
}

func refRemapLabels(prevH *grid.Hierarchy, prevA *Assignment, curH *grid.Hierarchy, curA *Assignment) []int {
	n := curA.NumProcs
	overlap := make([][]int64, n)
	for q := range overlap {
		overlap[q] = make([]int64, n)
	}
	levels := len(curH.Levels)
	if len(prevH.Levels) < levels {
		levels = len(prevH.Levels)
	}
	for l := 0; l < levels; l++ {
		prevOwned := prevA.LevelBoxes(l)
		curOwned := curA.LevelBoxes(l)
		for q, qb := range curOwned {
			for p, pb := range prevOwned {
				overlap[q][p] += geom.OverlapVolume(qb, pb)
			}
		}
	}
	benefit := make([][]int64, n)
	var maxB int64
	for q := range benefit {
		benefit[q] = make([]int64, n)
		for p := 0; p < n; p++ {
			b := 2 * overlap[q][p]
			if p == q {
				b++
			}
			benefit[q][p] = b
			if b > maxB {
				maxB = b
			}
		}
	}
	cost := make([][]int64, n)
	for q := range cost {
		cost[q] = make([]int64, n)
		for p := 0; p < n; p++ {
			cost[q][p] = maxB - benefit[q][p]
		}
	}
	return refHungarian(cost)
}

func refHungarian(cost [][]int64) []int {
	n := len(cost)
	const inf = int64(1) << 62
	u := make([]int64, n+1)
	v := make([]int64, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]int64, n+1)
		used := make([]bool, n+1)
		for j := 0; j <= n; j++ {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	out := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			out[p[j]-1] = j - 1
		}
	}
	return out
}

// TestRemapMatchesReference holds a Remap chain to the stateful wrapper
// it replaced, assignment for assignment: the quick traces and random
// hierarchy sequences, under every partitioner family, at 16
// processors and at more processors than the inner partitioner has
// units (empty parts), and across a processor-count change mid-chain.
func TestRemapMatchesReference(t *testing.T) {
	var seqs [][]*grid.Hierarchy
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		var hs []*grid.Hierarchy
		for _, snap := range tr.Snapshots {
			hs = append(hs, snap.H)
		}
		seqs = append(seqs, hs)
	}
	r := rand.New(rand.NewSource(47))
	for i := 0; i < 8; i++ {
		var hs []*grid.Hierarchy
		for j := 0; j < 6; j++ {
			hs = append(hs, randomHierarchy(r))
		}
		seqs = append(seqs, hs)
	}
	inners := []Partitioner{NewDomainSFC(), NewNatureFable(), NewPatchBased()}
	for _, inner := range inners {
		for _, np := range [][]int{{16}, {100}, {5, 5, 7, 7}} {
			for si, hs := range seqs {
				ref := &refPostMapped{inner: inner}
				var prevH *grid.Hierarchy
				var prevA *Assignment
				for i, h := range hs {
					n := np[i%len(np)]
					want := mustPartition(t, ref, h, n)
					a := mustPartition(t, inner, h, n)
					got, err := Remap(context.Background(), prevH, prevA, h, a)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, nprocs %v, sequence %d, step %d: Remap diverged from the stateful reference", inner.Name(), np, si, i)
					}
					prevH, prevA = h, got
				}
			}
		}
	}
}

// TestRemapCancelled: Remap polls its context, answers nil and the
// context's error at every poll a cancel can hit, and, being a pure
// function of its arguments, answers the uncancelled result on the next
// call.
func TestRemapCancelled(t *testing.T) {
	h := testHierarchy()
	hs := []*grid.Hierarchy{h, h.Clone()}
	as := []*Assignment{mustPartition(t, NewDomainSFC(), h, 4), mustPartition(t, &relabelingPartitioner{inner: NewDomainSFC(), calls: 1}, h, 4)}
	want, err := Remap(context.Background(), hs[0], as[0], hs[1], as[1])
	if err != nil {
		t.Fatal(err)
	}
	count := newCountdownCtx(1 << 30)
	if _, err := Remap(count, hs[0], as[0], hs[1], as[1]); err != nil {
		t.Fatal(err)
	}
	if count.polls == 0 {
		t.Fatal("Remap never polled its context")
	}
	for n := 0; n < count.polls; n++ {
		got, err := Remap(newCountdownCtx(n), hs[0], as[0], hs[1], as[1])
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("cancel at poll %d/%d: (%v, %v), want (nil, context.Canceled)", n, count.polls, got, err)
		}
	}
	got, err := Remap(context.Background(), hs[0], as[0], hs[1], as[1])
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Remap after cancelled calls = (%v, %v), want the uncancelled answer", got, err)
	}
	if mv := migrationBetween(h, as[0], got); mv != 0 {
		t.Errorf("remapped migration = %d, want 0", mv)
	}
}

// TestRemapAnsweredByDeadline: at 2048 labels, relabeling
// testHierarchy's answer against a label-rotated copy runs the match
// for seconds, yet a 50 ms deadline is answered with its error within
// T + max(50 ms, T/4), the bound of ROADMAP item 18(b).
func TestRemapAnsweredByDeadline(t *testing.T) {
	const np, timeout = 2048, 50 * time.Millisecond
	h := testHierarchy()
	prev := mustPartition(t, NewDomainSFC(), h, np)
	a := mustPartition(t, &relabelingPartitioner{inner: NewDomainSFC(), calls: 1}, h, np)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	got, err := Remap(ctx, h, prev, h, a)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Fatalf("Remap = (%v, %v), want (nil, deadline exceeded)", got, err)
	}
	if bound := timeout + max(50*time.Millisecond, timeout/4); took > bound {
		t.Errorf("deadline answered after %v, want within %v", took, bound)
	}
}

// BenchmarkRemap times one relabel at the paper's 16 labels, on each
// consecutive pair of the quick traces' nature+fable answers, and at
// 2048 labels on testHierarchy's domain-based answer against itself
// (a session step that kept every level), where the n² cost matrix and
// the match dominate.
func BenchmarkRemap(b *testing.B) {
	type pair struct {
		prevH, h *grid.Hierarchy
		prevA, a *Assignment
	}
	var quick []pair
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i < len(tr.Snapshots); i++ {
			prevH, h := tr.Snapshots[i-1].H, tr.Snapshots[i].H
			quick = append(quick, pair{prevH, h, mustPartition(b, NewNatureFable(), prevH, 16), mustPartition(b, NewNatureFable(), h, 16)})
		}
	}
	h := testHierarchy()
	a := mustPartition(b, NewDomainSFC(), h, 2048)
	wide := pair{h, h, a, a}
	for _, bc := range []struct {
		name  string
		pairs []pair
	}{{"quick-16", quick}, {"labels-2048", []pair{wide}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, p := range bc.pairs {
					if _, err := Remap(context.Background(), p.prevH, p.prevA, p.h, p.a); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(bc.pairs)), "remaps/op")
		})
	}
}
