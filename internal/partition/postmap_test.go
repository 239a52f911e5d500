package partition

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/sfc"
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

// levelBoxes returns the fragments of level l grouped per owner, empty
// boxes left out: the grouping the oracles below scan owner pair by
// owner pair.
func levelBoxes(a *Assignment, level int) map[int]geom.BoxList {
	out := make(map[int]geom.BoxList)
	for _, f := range a.Fragments {
		if f.Level == level && !f.Box.Empty() {
			out[f.Owner] = append(out[f.Owner], f.Box)
		}
	}
	return out
}

// migrationBetween counts points that changed owner between two
// assignments of the same hierarchy.
func migrationBetween(h *grid.Hierarchy, a, b *Assignment) int64 {
	var moved int64
	for l := range h.Levels {
		ao := levelBoxes(a, l)
		bo := levelBoxes(b, l)
		var stayed int64
		for p, pb := range ao {
			if cb, ok := bo[p]; ok {
				stayed += geom.OverlapVolumeNaive(pb, cb)
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
			if a, err = Remap(context.Background(), out[i-1], a); err != nil {
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
		shared := geom.OverlapVolumeNaive(hPrev.Levels[l].Boxes, hCur.Levels[l].Boxes)
		po := levelBoxes(aPrev, l)
		co := levelBoxes(aCur, l)
		var stayed int64
		for p, pb := range po {
			if cb, ok := co[p]; ok {
				stayed += geom.OverlapVolumeNaive(pb, cb)
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
	got, err := Remap(context.Background(), prev, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Error("Remap across processor counts did not return its input")
	}
	if got, err := Remap(context.Background(), nil, a); err != nil || got != a {
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
		prevOwned := levelBoxes(prevA, l)
		curOwned := levelBoxes(curA, l)
		for q, qb := range curOwned {
			for p, pb := range prevOwned {
				overlap[q][p] += geom.OverlapVolumeNaive(qb, pb)
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
// it replaced, assignment for assignment, though Remap reads no
// hierarchy: the quick traces, the same with every other step cut to
// its base level, and random hierarchy sequences, under every partitioner family, at 16
// processors and at more processors than the inner partitioner has
// units (empty parts), and across a processor-count change mid-chain.
func TestRemapMatchesReference(t *testing.T) {
	var seqs [][]*grid.Hierarchy
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		var hs, mixed []*grid.Hierarchy
		for i, snap := range tr.Snapshots {
			hs = append(hs, snap.H)
			// Every other step with its refinements dropped: each pair
			// differs in level count, the previous step's hierarchy the
			// deeper one and then the shallower one.
			if i%2 == 1 {
				base := snap.H.Clone()
				base.Levels = base.Levels[:1]
				mixed = append(mixed, base)
			} else {
				mixed = append(mixed, snap.H)
			}
		}
		seqs = append(seqs, hs, mixed)
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
				var prevA *Assignment
				for i, h := range hs {
					n := np[i%len(np)]
					want := mustPartition(t, ref, h, n)
					a := mustPartition(t, inner, h, n)
					got, err := Remap(context.Background(), prevA, a)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, nprocs %v, sequence %d, step %d: Remap diverged from the stateful reference", inner.Name(), np, si, i)
					}
					prevA = got
				}
			}
		}
	}
}

// benefitReference is overlapBenefit's map-based body: per level up to
// a's last, every part of a against every part of prevA, one
// OverlapVolumeNaive per owner pair.
func benefitReference(prevA, a *Assignment) []int64 {
	n := a.NumProcs
	benefit := make([]int64, n*n)
	levels := 0
	for _, f := range a.Fragments {
		levels = max(levels, f.Level+1)
	}
	for l := 0; l < levels; l++ {
		prevOwned := levelBoxes(prevA, l)
		for q, qb := range levelBoxes(a, l) {
			for p, pb := range prevOwned {
				benefit[q*n+p] += 2 * geom.OverlapVolumeNaive(qb, pb)
			}
		}
	}
	return benefit
}

// benefitUncancelled is overlapBenefit under a context that is never
// done, which cannot fail.
func benefitUncancelled(prev, a *Assignment) []int64 {
	benefit, _ := overlapBenefit(context.Background(), prev, a)
	return benefit
}

// stablePartitioners is the meta-partitioner's stable (core's
// NewMetaPartitioner, which this package cannot import) and the patch
// family.
func stablePartitioners() []Partitioner {
	return []Partitioner{
		&DomainSFC{Curve: sfc.Morton, UnitSize: 4},
		NewPostMapped(&DomainSFC{Curve: sfc.Hilbert, UnitSize: 2}),
		&NatureFable{Curve: sfc.Hilbert, AtomicUnit: 4, Groups: 4, FractionalBlocking: false},
		&NatureFable{Curve: sfc.Hilbert, AtomicUnit: 1, Groups: 4, FractionalBlocking: true},
		NewNatureFable(),
		NewPatchBased(),
	}
}

// TestOverlapBenefitMatchesReference holds the benefit matrix to its
// map-based body on every consecutive pair of the quick traces at 3
// and 16 processors, under stablePartitioners (the postmap member
// relabeled along the trace, as the simulator does).
func TestOverlapBenefitMatchesReference(t *testing.T) {
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range stablePartitioners() {
			for _, np := range []int{3, 16} {
				var prev *Assignment
				for _, snap := range tr.Snapshots {
					a := mustPartition(t, p, snap.H, np)
					if prev != nil && !reflect.DeepEqual(benefitUncancelled(prev, a), benefitReference(prev, a)) {
						t.Fatalf("%s %s np=%d step %d: benefit differs from the reference", app, p.Name(), np, snap.Step)
					}
					if _, ok := p.(*PostMapped); ok {
						if a, err = Remap(context.Background(), prev, a); err != nil {
							t.Fatal(err)
						}
					}
					prev = a
				}
			}
		}
	}
}

// randomFragmentsOn draws up to 23 fragments over nprocs owners on
// levels 0 to 3, of sizes that grow with the level: overlapping each
// other, now and then empty, and on negative coordinates past the edge
// of a window. They cover nothing in particular.
func randomFragmentsOn(r *rand.Rand, nprocs int) *Assignment {
	a := &Assignment{NumProcs: nprocs}
	for range r.Intn(24) {
		l := r.Intn(4)
		w := 8 << l
		x, y := r.Intn(w+4)-2, r.Intn(w+4)-2
		b := geom.NewBox2(x, y, x+1+r.Intn(w/2+1), y+1+r.Intn(w/2+1))
		if r.Intn(8) == 0 {
			d := r.Intn(2)
			b.Hi[d] = b.Lo[d] - r.Intn(2)
		}
		a.Fragments = append(a.Fragments, Fragment{Level: l, Box: b, Owner: r.Intn(nprocs)})
	}
	return a
}

// TestOverlapBenefitMatchesReferenceOnNonCovers holds the benefit
// matrix to its map-based body on 2000 pairs of random fragment lists
// (randomFragmentsOn) at 1 to 5 processors.
func TestOverlapBenefitMatchesReferenceOnNonCovers(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for i := range 2000 {
		np := 1 + i%5
		prev, a := randomFragmentsOn(r, np), randomFragmentsOn(r, np)
		if got, want := benefitUncancelled(prev, a), benefitReference(prev, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: benefit %v, reference %v", i, got, want)
		}
	}
}

// FuzzOverlapBenefit is TestOverlapBenefitMatchesReferenceOnNonCovers
// over the generator's seed and processor count:
//
//	go test -run='^$' -fuzz=FuzzOverlapBenefit -fuzztime=10s ./internal/partition/
func FuzzOverlapBenefit(f *testing.F) {
	for _, seed := range []int64{1, 2, 52} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nprocs uint8) {
		r := rand.New(rand.NewSource(seed))
		np := 1 + int(nprocs%16)
		prev, a := randomFragmentsOn(r, np), randomFragmentsOn(r, np)
		if got, want := benefitUncancelled(prev, a), benefitReference(prev, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("benefit %v, reference %v", got, want)
		}
	})
}

// TestRemapCancelled: Remap polls its context, answers nil and the
// context's error at every poll a cancel can hit, and, being a pure
// function of its arguments, answers the uncancelled result on the next
// call.
func TestRemapCancelled(t *testing.T) {
	h := testHierarchy()
	as := []*Assignment{mustPartition(t, NewDomainSFC(), h, 4), mustPartition(t, &relabelingPartitioner{inner: NewDomainSFC(), calls: 1}, h, 4)}
	want, err := Remap(context.Background(), as[0], as[1])
	if err != nil {
		t.Fatal(err)
	}
	count := newCountdownCtx(1 << 30)
	if _, err := Remap(count, as[0], as[1]); err != nil {
		t.Fatal(err)
	}
	if count.polls == 0 {
		t.Fatal("Remap never polled its context")
	}
	for n := 0; n < count.polls; n++ {
		got, err := Remap(newCountdownCtx(n), as[0], as[1])
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("cancel at poll %d/%d: (%v, %v), want (nil, context.Canceled)", n, count.polls, got, err)
		}
	}
	got, err := Remap(context.Background(), as[0], as[1])
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
	got, err := Remap(ctx, prev, a)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Fatalf("Remap = (%v, %v), want (nil, deadline exceeded)", got, err)
	}
	if bound := timeout + max(50*time.Millisecond, timeout/4); took > bound {
		t.Errorf("deadline answered after %v, want within %v", took, bound)
	}
}

// TestRemapScanAnsweredByDeadline: between two assignments of 65536
// full-width strips over 16 owners the benefit scan compares every
// pair, 2^32 candidates that took 14.6 s (2 vCPU Xeon) before the scan
// polled; a 1 s deadline is answered with its error within
// T + max(50 ms, T/4).
func TestRemapScanAnsweredByDeadline(t *testing.T) {
	const timeout = time.Second
	_, prev := stripCover(1<<16, func(i int) int { return i % 16 })
	_, a := stripCover(1<<16, func(i int) int { return i / 7 % 16 })
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	got, err := Remap(ctx, prev, a)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || got != nil {
		t.Fatalf("Remap = (%v, %v), want (nil, deadline exceeded)", got, err)
	}
	if bound := timeout + max(50*time.Millisecond, timeout/4); took > bound {
		t.Errorf("deadline answered after %v, want within %v", took, bound)
	}
}

// TestRemapRefusesTooManyLabels: past maxLabels processors Remap
// answers ErrTooManyLabels, with or without a history, before it
// allocates the label match (128 MiB of benefit matrix at 4096 labels).
func TestRemapRefusesTooManyLabels(t *testing.T) {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 64, 64), 2)
	prev := mustPartition(t, NewDomainSFC(), h, 2*maxLabels)
	a := mustPartition(t, &relabelingPartitioner{inner: NewDomainSFC(), calls: 1}, h, 2*maxLabels)
	for _, history := range []*Assignment{nil, prev} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Remap(context.Background(), history, a)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooManyLabels) || got != nil {
			t.Fatalf("Remap at %d labels = (%v, %v), want (nil, ErrTooManyLabels)", a.NumProcs, got, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("refusal allocated %d bytes, want under 1 MiB", grew)
		}
	}
}

// BenchmarkRemap times one relabel at the paper's 16 labels, on each
// consecutive pair of the quick traces' nature+fable answers, and at
// 2048 labels on testHierarchy's domain-based answer against itself
// (a session step that kept every level), where the n² cost matrix and
// the match dominate.
func BenchmarkRemap(b *testing.B) {
	type pair struct{ prevA, a *Assignment }
	var quick []pair
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i < len(tr.Snapshots); i++ {
			prevH, h := tr.Snapshots[i-1].H, tr.Snapshots[i].H
			quick = append(quick, pair{mustPartition(b, NewNatureFable(), prevH, 16), mustPartition(b, NewNatureFable(), h, 16)})
		}
	}
	h := testHierarchy()
	a := mustPartition(b, NewDomainSFC(), h, 2048)
	wide := pair{a, a}
	for _, bc := range []struct {
		name  string
		pairs []pair
	}{{"quick-16", quick}, {"labels-2048", []pair{wide}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, p := range bc.pairs {
					if _, err := Remap(context.Background(), p.prevA, p.a); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(bc.pairs)), "remaps/op")
		})
	}
}
