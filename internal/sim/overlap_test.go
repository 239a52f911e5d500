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
	"samr/internal/trace"
)

// levelBoxes returns the fragments of level l grouped per owner, empty
// boxes left out: the grouping the map-based oracles scan owner pair by
// owner pair.
func levelBoxes(a *partition.Assignment, level int) map[int]geom.BoxList {
	out := make(map[int]geom.BoxList)
	for _, f := range a.Fragments {
		if f.Level == level && !f.Box.Empty() {
			out[f.Owner] = append(out[f.Owner], f.Box)
		}
	}
	return out
}

// migrationReference is Migration's map-based body: per level, the
// hierarchies' overlap less the overlap of every owner's fragments
// under both assignments, one OverlapVolumeNaive per owner.
func migrationReference(hPrev, hCur *grid.Hierarchy, aPrev, aCur *partition.Assignment) int64 {
	levels := min(len(hPrev.Levels), len(hCur.Levels))
	var moved int64
	for l := 0; l < levels; l++ {
		shared := geom.OverlapVolumeNaive(hPrev.Levels[l].Boxes, hCur.Levels[l].Boxes)
		prevOwned := levelBoxes(aPrev, l)
		curOwned := levelBoxes(aCur, l)
		var stayed int64
		for p, pb := range prevOwned {
			if cb, ok := curOwned[p]; ok {
				stayed += geom.OverlapVolumeNaive(pb, cb)
			}
		}
		moved += shared - stayed
	}
	return moved
}

// evaluateReference is Evaluate's indexed body: the fragments copied
// per level, a geom.BoxIndex per level, and each communication term an
// owner-pair scan that queries every fragment's halo reach or coarse
// footprint.
func evaluateReference(h *grid.Hierarchy, a *partition.Assignment, m Machine) StepMetrics {
	loads := a.Loads(h)
	sm := StepMetrics{Loads: loads, Imbalance: partition.ImbalanceOf(loads)}
	perLevel := make([][]partition.Fragment, len(h.Levels))
	for _, f := range a.Fragments {
		if f.Level < len(h.Levels) {
			perLevel[f.Level] = append(perLevel[f.Level], f)
		}
	}
	comm := make([]int64, a.NumProcs)
	msgs := make([]int64, a.NumProcs)
	indexes := make([]*geom.BoxIndex, len(perLevel))
	for l, frags := range perLevel {
		bl := make(geom.BoxList, len(frags))
		for i, f := range frags {
			bl[i] = f.Box
		}
		indexes[l] = geom.NewBoxIndex(bl)
	}
	scan := func(frags, targets []partition.Fragment, idx *geom.BoxIndex, query func(geom.Box) (reach, inner geom.Box), steps int64, total *int64) {
		pairs := make(map[[2]int]bool)
		for _, f := range frags {
			reach, inner := query(f.Box)
			for _, j := range idx.Query(reach) {
				g := targets[j]
				if f.Owner == g.Owner {
					continue
				}
				if vol := reach.Intersect(g.Box).Volume() - inner.Intersect(g.Box).Volume(); vol > 0 {
					*total += vol * steps
					comm[f.Owner] += vol * steps
					pairs[[2]int{f.Owner, g.Owner}] = true
				}
			}
		}
		sm.Messages += int64(len(pairs)) * steps
		for p := range pairs {
			msgs[p[0]] += steps
		}
	}
	halo := func(b geom.Box) (geom.Box, geom.Box) { return b.Grow(1), b }
	footprint := func(b geom.Box) (geom.Box, geom.Box) { return b.Coarsen(h.RefRatio), geom.Box{} }
	for l, frags := range perLevel {
		scan(frags, frags, indexes[l], halo, h.StepFactor(l), &sm.IntraLevelComm)
		if l > 0 {
			scan(frags, perLevel[l-1], indexes[l-1], footprint, h.StepFactor(l-1), &sm.InterLevelComm)
		}
	}
	if w := h.Workload(); w > 0 {
		sm.RelativeComm = float64(sm.TotalComm()) / float64(w)
	}
	for p := 0; p < a.NumProcs; p++ {
		t := float64(sm.Loads[p])*m.CellTime + float64(comm[p])/m.PointBandwidth + float64(msgs[p])*m.MessageLatency
		sm.EstTime = max(sm.EstTime, t)
	}
	return sm
}

// requireEvaluateMatchesReference holds Evaluate on (h, a) to its
// reference body, bit for bit.
func requireEvaluateMatchesReference(t *testing.T, where string, h *grid.Hierarchy, a *partition.Assignment) {
	t.Helper()
	m := DefaultMachine()
	got, err := Evaluate(bg, h, a, m)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	if want := evaluateReference(h, a, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Evaluate = %+v, reference %+v", where, got, want)
	}
}

// requireMigrationMatchesReference holds Migration from (hPrev, aPrev)
// to (h, a) to its reference body.
func requireMigrationMatchesReference(t *testing.T, where string, hPrev, h *grid.Hierarchy, aPrev, a *partition.Assignment) {
	t.Helper()
	if got, want := Migration(hPrev, h, aPrev, a), migrationReference(hPrev, h, aPrev, a); got != want {
		t.Fatalf("%s: Migration = %d, reference %d", where, got, want)
	}
}

// TestOverlapKernelsMatchReferenceOnQuickTraces runs every consecutive
// pair of the four quick traces under each member of the
// meta-partitioner's stable at 3 and 16 processors (the postmap member
// relabeled along the trace, as simulateTrace does) through Evaluate
// and Migration and their reference bodies.
func TestOverlapKernelsMatchReferenceOnQuickTraces(t *testing.T) {
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(bg, app)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range core.NewMetaPartitioner(core.DefaultPartitionCost).Stable() {
			for _, np := range []int{3, 16} {
				var prev *partition.Assignment
				for i, snap := range tr.Snapshots {
					a := mustPartition(t, p, snap.H, np)
					if _, ok := p.(*partition.PostMapped); ok && prev != nil {
						if a, err = partition.Remap(bg, prev, a); err != nil {
							t.Fatal(err)
						}
					}
					if i > 0 {
						where := fmt.Sprintf("%s %s np=%d step %d", app, p.Name(), np, snap.Step)
						requireEvaluateMatchesReference(t, where, snap.H, a)
						requireMigrationMatchesReference(t, where, tr.Snapshots[i-1].H, snap.H, prev, a)
					}
					prev = a
				}
			}
		}
	}
}

// randomBoxOn returns a random box near window w: mostly inside it,
// sometimes past its edge or on negative coordinates, and one time in
// eight empty (a degenerate box whose halo and footprint are not).
func randomBoxOn(r *rand.Rand, w int) geom.Box {
	x, y := r.Intn(w+4)-2, r.Intn(w+4)-2
	b := geom.NewBox2(x, y, x+1+r.Intn(w/2+1), y+1+r.Intn(w/2+1))
	if r.Intn(8) == 0 {
		d := r.Intn(2)
		b.Hi[d] = b.Lo[d] - r.Intn(2)
	}
	return b
}

// randomNonCover draws a hierarchy of one to three levels and, on it,
// an assignment over nprocs processors that is not an exact cover:
// fragments that overlap each other, empty fragments, fragments that
// leave cells of the hierarchy out or lie outside it, and fragments on
// a level past the hierarchy's last.
func randomNonCover(r *rand.Rand, nprocs int) (*grid.Hierarchy, *partition.Assignment) {
	h := &grid.Hierarchy{Domain: geom.NewBox2(0, 0, 8, 8), RefRatio: 2}
	for l := range 1 + r.Intn(3) {
		bl := make(geom.BoxList, 1+r.Intn(5))
		for i := range bl {
			bl[i] = randomBoxOn(r, 8<<l)
		}
		h.Levels = append(h.Levels, grid.Level{Boxes: bl})
	}
	a := &partition.Assignment{NumProcs: nprocs}
	for range r.Intn(24) {
		l := r.Intn(len(h.Levels) + 1)
		a.Fragments = append(a.Fragments, partition.Fragment{Level: l, Box: randomBoxOn(r, 8<<l), Owner: r.Intn(nprocs)})
	}
	return h, a
}

// randomCover draws a valid hierarchy of one to three levels and, on
// it, an assignment over nprocs processors that covers it exactly, as
// every Partitioner answer does: each box cut at random into fragments
// with random owners. Given keep, the hierarchy keeps keep's level 0
// and a random number of its further levels and redraws the rest, so
// two draws share some levels and may differ in level count either way.
func randomCover(r *rand.Rand, keep *grid.Hierarchy, nprocs int) (*grid.Hierarchy, *partition.Assignment) {
	w := 4 + r.Intn(9)
	h := grid.NewHierarchy(geom.NewBox2(0, 0, w, w), 2)
	if keep != nil {
		h = &grid.Hierarchy{Domain: keep.Domain, RefRatio: keep.RefRatio, Levels: keep.Levels[:1+r.Intn(len(keep.Levels))]}
	}
	for levels := 1 + r.Intn(3); len(h.Levels) < levels; {
		// Each parent box holds one random child box of its refinement,
		// or none; a level holds at least one.
		var bl geom.BoxList
		parents := h.Levels[len(h.Levels)-1].Boxes
		for k, pb := range parents {
			if k < len(parents)-1 || len(bl) > 0 {
				if r.Intn(3) == 0 {
					continue
				}
			}
			f := pb.Refine(h.RefRatio)
			x0, y0 := f.Lo[0]+r.Intn(f.Size(0)), f.Lo[1]+r.Intn(f.Size(1))
			bl = append(bl, geom.NewBox2(x0, y0, x0+1+r.Intn(f.Hi[0]-x0), y0+1+r.Intn(f.Hi[1]-y0)))
		}
		h.Levels = append(h.Levels[:len(h.Levels):len(h.Levels)], grid.Level{Boxes: bl})
	}
	a := &partition.Assignment{NumProcs: nprocs}
	var cut func(l int, b geom.Box, depth int)
	cut = func(l int, b geom.Box, depth int) {
		if d := r.Intn(2); depth < 3 && b.Size(d) > 1 && r.Intn(3) > 0 {
			lo, hi := b.ChopDim(d, b.Lo[d]+1+r.Intn(b.Size(d)-1))
			cut(l, lo, depth+1)
			cut(l, hi, depth+1)
			return
		}
		a.Fragments = append(a.Fragments, partition.Fragment{Level: l, Box: b, Owner: r.Intn(nprocs)})
	}
	for l, lev := range h.Levels {
		for _, b := range lev.Boxes {
			cut(l, b, 0)
		}
	}
	r.Shuffle(len(a.Fragments), func(i, j int) { a.Fragments[i], a.Fragments[j] = a.Fragments[j], a.Fragments[i] })
	return h, a
}

// requireKernelsMatchOnRandomDraws draws from r a pair of non-covers
// (randomNonCover), on which it holds Evaluate to its reference body,
// and then a pair of exact covers (randomCover), on which it holds
// Evaluate to its reference body and the raster, and Migration to its
// reference body and the raster. Migration counts moved points only on
// exact covers; on a non-cover its result is not a count.
func requireKernelsMatchOnRandomDraws(t *testing.T, where string, r *rand.Rand, nprocs int) {
	t.Helper()
	h, a := randomNonCover(r, nprocs)
	requireEvaluateMatchesReference(t, where+" non-cover", h, a)
	hPrev, aPrev := randomCover(r, nil, nprocs)
	h, a = randomCover(r, hPrev, nprocs)
	for _, c := range []struct {
		h *grid.Hierarchy
		a *partition.Assignment
	}{{hPrev, aPrev}, {h, a}} {
		if err := c.h.Validate(); err != nil {
			t.Fatalf("%s: randomCover drew an invalid hierarchy: %v", where, err)
		}
		if err := c.a.Validate(c.h); err != nil {
			t.Fatalf("%s: randomCover drew a non-cover: %v", where, err)
		}
	}
	requireEvaluateMatchesReference(t, where+" cover", h, a)
	if got, want := mustEvaluate(t, h, a, DefaultMachine()), rasterEvaluate(t, h, a, DefaultMachine()); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s cover: Evaluate = %+v, raster %+v", where, got, want)
	}
	requireMigrationMatchesReference(t, where+" cover", hPrev, h, aPrev, a)
	if got, want := Migration(hPrev, h, aPrev, a), rasterMigration(t, hPrev, h, aPrev, a); got != want {
		t.Fatalf("%s cover: Migration = %d, raster %d", where, got, want)
	}
}

// TestOverlapKernelsMatchReferenceOnNonCovers holds Evaluate to its
// reference body on 2000 random assignments that are not exact covers
// (randomNonCover), and Evaluate and Migration to their reference
// bodies and the raster on 2000 random pairs of exact covers
// (randomCover), at 1 to 5 processors.
func TestOverlapKernelsMatchReferenceOnNonCovers(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for i := range 2000 {
		requireKernelsMatchOnRandomDraws(t, fmt.Sprintf("case %d", i), r, 1+i%5)
	}
}

// FuzzOverlapKernels is TestOverlapKernelsMatchReferenceOnNonCovers
// over the generators' seed and processor count:
//
//	go test -run='^$' -fuzz=FuzzOverlapKernels -fuzztime=10s ./internal/sim/
func FuzzOverlapKernels(f *testing.F) {
	for _, seed := range []int64{1, 2, 52} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nprocs uint8) {
		r := rand.New(rand.NewSource(seed))
		requireKernelsMatchOnRandomDraws(t, fmt.Sprintf("seed %d", seed), r, 1+int(nprocs%16))
	})
}

// benchStep is one consecutive step pair of a benchmark trace under
// nature+fable at 16 processors.
type benchStep struct {
	hPrev, h *grid.Hierarchy
	aPrev, a *partition.Assignment
}

// benchScales are the two scales the kernel benchmarks run at: the
// quick traces, and paper-16-steps (the bench module's scale, with the
// layout of its sim.migration_us_per_pair and sim.evaluate_us_per_snap).
var benchScales = []struct {
	name string
	load func(app string) (*trace.Trace, error)
}{
	{"quick", func(app string) (*trace.Trace, error) { return apps.QuickTrace(bg, app) }},
	{"paper-16-steps", func(app string) (*trace.Trace, error) {
		return apps.Generate(context.Background(), app, apps.PaperConfig(), 16)
	}},
}

// benchStepsOf holds each scale's step pairs, built once a process.
var benchStepsOf = map[string][]benchStep{}

// benchSteps returns the consecutive step pairs of the four
// applications at scale i of benchScales.
func benchSteps(b *testing.B, i int) []benchStep {
	sc := benchScales[i]
	if out, ok := benchStepsOf[sc.name]; ok {
		return out
	}
	var out []benchStep
	for _, app := range apps.Names {
		tr, err := sc.load(app)
		if err != nil {
			b.Fatal(err)
		}
		var prev *partition.Assignment
		for i, snap := range tr.Snapshots {
			a := mustPartition(b, partition.NewNatureFable(), snap.H, 16)
			if i > 0 {
				out = append(out, benchStep{tr.Snapshots[i-1].H, snap.H, prev, a})
			}
			prev = a
		}
	}
	benchStepsOf[sc.name] = out
	return out
}

// BenchmarkMigration times one migration scan per consecutive step pair
// of the four applications' traces under nature+fable at 16
// processors, at both benchScales, against the map-based reference
// body.
func BenchmarkMigration(b *testing.B) {
	for i, sc := range benchScales {
		steps := benchSteps(b, i)
		for _, body := range []struct {
			name string
			f    func(hPrev, hCur *grid.Hierarchy, aPrev, aCur *partition.Assignment) int64
		}{{"scan", Migration}, {"reference", migrationReference}} {
			b.Run(sc.name+"/"+body.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					for _, s := range steps {
						body.f(s.hPrev, s.h, s.aPrev, s.a)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(steps)), "us/pair")
			})
		}
	}
}

// BenchmarkEvaluate times Evaluate on every step of BenchmarkMigration's
// pairs (all but each trace's first), at both benchScales, against the
// indexed reference body.
func BenchmarkEvaluate(b *testing.B) {
	m := DefaultMachine()
	for i, sc := range benchScales {
		steps := benchSteps(b, i)
		for _, body := range []struct {
			name string
			f    func(h *grid.Hierarchy, a *partition.Assignment) StepMetrics
		}{
			{"scan", func(h *grid.Hierarchy, a *partition.Assignment) StepMetrics {
				sm, _ := Evaluate(bg, h, a, m)
				return sm
			}},
			{"reference", func(h *grid.Hierarchy, a *partition.Assignment) StepMetrics { return evaluateReference(h, a, m) }},
		} {
			b.Run(sc.name+"/"+body.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					for _, s := range steps {
						body.f(s.h, s.a)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(steps)), "us/snap")
			})
		}
	}
}
