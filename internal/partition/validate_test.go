package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
)

// disjointPairwise is the pairwise disjointness test Validate ran
// before the cover sweep, kept here so that the reference stays
// independent of the code it checks.
func disjointPairwise(bl geom.BoxList) bool {
	for i := range bl {
		for j := i + 1; j < len(bl); j++ {
			if bl[i].Intersects(bl[j]) {
				return false
			}
		}
	}
	return true
}

// coversBox is the subtraction-list containment test Validate ran:
// whether the union of bl covers b.
func coversBox(bl geom.BoxList, b geom.Box) bool {
	rem := geom.BoxList{b}
	for _, m := range bl {
		rem = rem.SubtractBox(m)
		if len(rem) == 0 {
			return true
		}
	}
	return len(rem) == 0 || rem.TotalVolume() == 0
}

// validateReference is Validate as it shipped before the cover sweep:
// one scan of the fragments per level, pairwise disjointness, the
// volume sum, and a subtraction list per fragment.
func validateReference(a *Assignment, h *grid.Hierarchy) error {
	if a.NumProcs < 1 {
		return fmt.Errorf("partition: no processors")
	}
	for _, f := range a.Fragments {
		if f.Level < 0 || f.Level >= len(h.Levels) {
			return fmt.Errorf("partition: fragment %v on level %d of a %d-level hierarchy", f.Box, f.Level, len(h.Levels))
		}
		if f.Owner < 0 || f.Owner >= a.NumProcs {
			return fmt.Errorf("partition: level %d fragment %v has bad owner %d", f.Level, f.Box, f.Owner)
		}
	}
	for l, lev := range h.Levels {
		var frags geom.BoxList
		for _, f := range a.Fragments {
			if f.Level == l {
				frags = append(frags, f.Box)
			}
		}
		if !disjointPairwise(frags) {
			return fmt.Errorf("partition: level %d fragments overlap", l)
		}
		if got, want := frags.TotalVolume(), lev.NumPoints(); got != want {
			return fmt.Errorf("partition: level %d covers %d of %d points", l, got, want)
		}
		for _, f := range frags {
			if !coversBox(lev.Boxes, f) {
				return fmt.Errorf("partition: level %d fragment %v outside level boxes", l, f)
			}
		}
	}
	return nil
}

// sameAnswer reports how Validate's answer differs from the
// reference's: they must accept the same assignments and refuse the
// others in the same words.
func sameAnswer(a *Assignment, h *grid.Hierarchy) error {
	got, want := a.Validate(h), validateReference(a, h)
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		return fmt.Errorf("Validate says %v, the reference %v", got, want)
	}
	return nil
}

// randomCover draws a valid hierarchy and an exact cover of it, shaped
// like sim's randomCover: a domain 4 to 12 cells wide, here cut into a
// few level-0 boxes, one or two finer levels in which each parent box
// holds one random child box of its refinement or none, and every box
// cut into up to eight fragments with random owners, shuffled.
func randomCover(r *rand.Rand, nprocs int) (*grid.Hierarchy, *Assignment) {
	var cut func(b geom.Box, depth int, out geom.BoxList) geom.BoxList
	cut = func(b geom.Box, depth int, out geom.BoxList) geom.BoxList {
		if d := r.Intn(2); depth < 3 && b.Size(d) > 1 && r.Intn(3) > 0 {
			lo, hi := b.ChopDim(d, b.Lo[d]+1+r.Intn(b.Size(d)-1))
			return cut(hi, depth+1, cut(lo, depth+1, out))
		}
		return append(out, b)
	}
	w := 4 + r.Intn(9)
	h := &grid.Hierarchy{Domain: geom.NewBox2(0, 0, w, w), RefRatio: 2}
	h.Levels = []grid.Level{{Boxes: cut(h.Domain, 1, nil)}}
	for levels := 1 + r.Intn(3); len(h.Levels) < levels; {
		var bl geom.BoxList
		parents := h.Levels[len(h.Levels)-1].Boxes
		for k, pb := range parents {
			if (k < len(parents)-1 || len(bl) > 0) && r.Intn(3) == 0 {
				continue
			}
			f := pb.Refine(h.RefRatio)
			x0, y0 := f.Lo[0]+r.Intn(f.Size(0)), f.Lo[1]+r.Intn(f.Size(1))
			bl = append(bl, geom.NewBox2(x0, y0, x0+1+r.Intn(f.Hi[0]-x0), y0+1+r.Intn(f.Hi[1]-y0)))
		}
		h.Levels = append(h.Levels, grid.Level{Boxes: bl})
	}
	a := &Assignment{NumProcs: nprocs}
	for l, lev := range h.Levels {
		for _, b := range lev.Boxes {
			for _, f := range cut(b, 0, nil) {
				a.Fragments = append(a.Fragments, Fragment{Level: l, Box: f, Owner: r.Intn(nprocs)})
			}
		}
	}
	r.Shuffle(len(a.Fragments), func(i, j int) { a.Fragments[i], a.Fragments[j] = a.Fragments[j], a.Fragments[i] })
	return h, a
}

// coverFaults break an exact cover of h, each in one of a few ways,
// on a random fragment; kinds names them in order.
var (
	kinds       = []string{"overlap", "gap", "outside", "empty", "off-level", "bad owner"}
	coverFaults = []func(r *rand.Rand, h *grid.Hierarchy, a *Assignment, i int){
		// an overlap: a duplicate under any owner, or a fragment grown
		// into its neighbours
		func(r *rand.Rand, _ *grid.Hierarchy, a *Assignment, i int) {
			if r.Intn(2) == 0 {
				f := a.Fragments[i]
				f.Owner = r.Intn(a.NumProcs)
				a.Fragments = append(a.Fragments, f)
				return
			}
			a.Fragments[i].Box = a.Fragments[i].Box.Grow(1)
		},
		// a gap: a fragment dropped, or a cell short
		func(r *rand.Rand, _ *grid.Hierarchy, a *Assignment, i int) {
			if r.Intn(2) == 0 {
				a.Fragments = append(a.Fragments[:i], a.Fragments[i+1:]...)
				return
			}
			a.Fragments[i].Box.Hi[r.Intn(2)]--
		},
		// a fragment outside the level's boxes: moved far away, where it
		// overlaps nothing and keeps its volume, or a cell over
		func(r *rand.Rand, _ *grid.Hierarchy, a *Assignment, i int) {
			d, by := r.Intn(2), []int{-1, 1, 1000}[r.Intn(3)]
			a.Fragments[i].Box.Lo[d] += by
			a.Fragments[i].Box.Hi[d] += by
		},
		// an empty fragment, anywhere: of zero extent or inverted, so of
		// no cells
		func(r *rand.Rand, _ *grid.Hierarchy, a *Assignment, i int) {
			f := a.Fragments[i]
			if r.Intn(2) == 0 {
				f.Box.Hi[0] = f.Box.Lo[0]
			} else {
				f.Box.Lo, f.Box.Hi = f.Box.Hi, f.Box.Lo
			}
			f.Box.Lo[1] += 100 * r.Intn(2)
			a.Fragments = append(a.Fragments, f)
		},
		// a fragment on a level h lacks
		func(r *rand.Rand, h *grid.Hierarchy, a *Assignment, i int) {
			a.Fragments[i].Level = []int{-1, len(h.Levels)}[r.Intn(2)]
		},
		// a bad owner
		func(r *rand.Rand, _ *grid.Hierarchy, a *Assignment, i int) {
			a.Fragments[i].Owner = []int{-1, a.NumProcs}[r.Intn(2)]
		},
	}
)

// breakCover applies fault k to a random fragment of a, if a has one.
func breakCover(r *rand.Rand, h *grid.Hierarchy, a *Assignment, k int) {
	if len(a.Fragments) > 0 {
		coverFaults[k](r, h, a, r.Intn(len(a.Fragments)))
	}
}

// refusalOf files Validate's answer under the check that gave it.
func refusalOf(err error) string {
	if err == nil {
		return "accepted"
	}
	for _, k := range []string{"overlap", "covers", "outside", "-level hierarchy", "bad owner"} {
		if strings.Contains(err.Error(), k) {
			return k
		}
	}
	return err.Error()
}

// TestAssignmentValidateMatchesReference: exact covers of random
// hierarchies, intact or broken by one or two faults, get from Validate
// the reference's verdict in the reference's words, and every refusal
// is seen many times.
func TestAssignmentValidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	seen := map[string]int{}
	for trial := range 4000 {
		h, a := randomCover(r, 1+r.Intn(4))
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: generator built an invalid hierarchy: %v", trial, err)
		}
		if err := a.Validate(h); err != nil {
			t.Fatalf("trial %d: generator built an inexact cover: %v", trial, err)
		}
		for n := r.Intn(3); n > 0; n-- {
			breakCover(r, h, a, r.Intn(len(coverFaults)))
		}
		if err := sameAnswer(a, h); err != nil {
			t.Fatalf("trial %d: %v\n%v\n%v", trial, err, h.Levels, a.Fragments)
		}
		seen[refusalOf(a.Validate(h))]++
	}
	for _, k := range []string{"accepted", "overlap", "covers", "outside", "-level hierarchy", "bad owner"} {
		if seen[k] < 100 {
			t.Errorf("only %d trials came out %q: %v", seen[k], k, seen)
		}
	}
}

// TestAssignmentValidateMatchesReferenceOnAnswers holds Validate to the
// reference on every answer the stable members give the quick traces at
// 3 and 16 processors, and on a copy of each broken by each fault.
func TestAssignmentValidateMatchesReferenceOnAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range stablePartitioners() {
			for _, np := range []int{3, 16} {
				for _, snap := range tr.Snapshots {
					a := mustPartition(t, p, snap.H, np)
					if err := a.Validate(snap.H); err != nil {
						t.Fatalf("%s %s np=%d step %d: %v", app, p.Name(), np, snap.Step, err)
					}
					if err := sameAnswer(a, snap.H); err != nil {
						t.Fatalf("%s %s np=%d step %d: %v", app, p.Name(), np, snap.Step, err)
					}
					for k := range coverFaults {
						b := &Assignment{NumProcs: a.NumProcs, Fragments: append([]Fragment(nil), a.Fragments...)}
						breakCover(r, snap.H, b, k)
						if err := sameAnswer(b, snap.H); err != nil {
							t.Fatalf("%s %s np=%d step %d, %s: %v", app, p.Name(), np, snap.Step, kinds[k], err)
						}
					}
				}
			}
		}
	}
}

// FuzzAssignmentValidate is TestAssignmentValidateMatchesReference over
// the generator's seed, its processor count and up to two faults
// (faults%7 and faults/7%7, 0 for none, else a fault of kinds):
//
//	go test -run='^$' -fuzz=FuzzAssignmentValidate -fuzztime=10s ./internal/partition/
func FuzzAssignmentValidate(f *testing.F) {
	for k := range len(coverFaults) + 1 {
		f.Add(int64(57+k), uint8(3), uint8(k))
	}
	f.Add(int64(1), uint8(1), uint8(3+7*1))
	f.Fuzz(func(t *testing.T, seed int64, nprocs, faults uint8) {
		r := rand.New(rand.NewSource(seed))
		h, a := randomCover(r, 1+int(nprocs%16))
		for _, k := range []int{int(faults % 7), int(faults / 7 % 7)} {
			if k > 0 {
				breakCover(r, h, a, k-1)
			}
		}
		if err := sameAnswer(a, h); err != nil {
			t.Fatalf("%v\n%v\n%v", err, h.Levels, a.Fragments)
		}
	})
}

// stripCover is the hierarchy and cover on which a pairwise check is
// quadratic: n full-width 64×1 strips tiling a 64×n base level, each
// its own fragment, owned by owner(i).
func stripCover(n int, owner func(i int) int) (*grid.Hierarchy, *Assignment) {
	h := &grid.Hierarchy{Domain: geom.NewBox2(0, 0, 64, n), RefRatio: 2, Levels: make([]grid.Level, 1)}
	a := &Assignment{NumProcs: 16, Fragments: make([]Fragment, n)}
	for i := range n {
		b := geom.NewBox2(0, i, 64, i+1)
		h.Levels[0].Boxes = append(h.Levels[0].Boxes, b)
		a.Fragments[i] = Fragment{Level: 0, Box: b, Owner: owner(i)}
	}
	return h, a
}

// TestAssignmentValidateIsNotQuadratic: the pairwise Validate took 3.2 s
// on 16384 strips and 14.9 s on 65536 (2 vCPU Xeon, go 1.24.0). Each quadrupling of the strips
// must cost at most ten times as much (sixteen is quadratic; two
// doublings leave room for a noisy one), and 65536 must validate in
// under a second. Each size is timed best of five, in rounds that take
// every size in turn, so that a burst of load from elsewhere on the
// machine falls on neighbouring sizes alike rather than on all of one
// size's runs.
func TestAssignmentValidateIsNotQuadratic(t *testing.T) {
	const ceiling = time.Second
	var sizes []int
	var hs []*grid.Hierarchy
	var as []*Assignment
	for n := 1 << 12; n <= 1<<16; n *= 2 {
		h, a := stripCover(n, func(i int) int { return i % 16 })
		sizes, hs, as = append(sizes, n), append(hs, h), append(as, a)
	}
	best := make([]time.Duration, len(sizes))
	for i := range best {
		best[i] = math.MaxInt64
	}
	runtime.GC()
	for range 5 {
		for i, a := range as {
			start := time.Now()
			if err := a.Validate(hs[i]); err != nil {
				t.Fatalf("%d strips: %v", sizes[i], err)
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	for i, n := range sizes {
		t.Logf("%d strips: %v", n, best[i])
		if best[i] > ceiling {
			t.Fatalf("%d strips took %v, over %v", n, best[i], ceiling)
		}
		if i >= 2 && best[i] > 10*best[i-2] {
			t.Fatalf("%d strips took %v, ×%.1f the time of a quarter as many", n, best[i], float64(best[i])/float64(best[i-2]))
		}
	}
}
