package partition

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/sfc"
)

// natureFableReference is NatureFable as it shipped before the prep
// held the hue's merged cover and the core chain's bi-level weights and
// fragments: every call re-chopped, re-weighted, re-sorted and
// re-fragmented each core group per bi-level, and cut the hue through
// bandFragments whatever its processor count. The four methods below
// are that body verbatim, except that the cuts take the chain's weights
// as a slice, that partitionCores weights the core units by their
// columns itself (the prep no longer stores those weights on the
// units), that fragments records in took which branch of the
// processor split it ran, and that the hue is blocked through
// blockRegion, which chops and weights it as the old prep did (the prep
// no longer stores the hue units' weights either). It shares the prep
// with NatureFable, reading only the hue, its workload and the core
// units.
type natureFableReference struct {
	*NatureFable
	took map[string]int
}

func (nf *natureFableReference) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(ctx, h, nprocs, nf.fragments)
}

// fragments is Partition before coalescing: the hue blocks, then each
// core group's bi-levels, one fragment per owned unit per level box it
// meets.
func (nf *natureFableReference) fragments(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	us := nf.AtomicUnit
	if us < 1 {
		us = 1
	}
	a := &Assignment{NumProcs: nprocs}
	hi := newHierIndex(ctx, h)
	prep, err := nfPrepOf(hi, nf.Curve, us)
	if err != nil {
		return nil, err
	}
	hue := prep.hue

	// Workload split: hues have only base work; cores everything else.
	hueW := prep.hueW // level 0, step factor 1
	totalW := h.Workload()
	coreW := totalW - hueW

	coreProcs := nprocs
	hueProcs := 0
	if hueW > 0 && coreW > 0 {
		coreProcs = int(float64(nprocs)*float64(coreW)/float64(totalW) + 0.5)
		if coreProcs < 1 {
			coreProcs = 1
		}
		if coreProcs >= nprocs && nprocs > 1 {
			coreProcs = nprocs - 1
		}
		hueProcs = nprocs - coreProcs
	} else if coreW == 0 {
		hueProcs, coreProcs = nprocs, 0
	}

	// Not in the shipped body: which branch of the split ran.
	switch {
	case hueW == 0:
		nf.took["hueW == 0"]++
	case hueProcs == 1:
		nf.took["hueProcs == 1"]++
	case hueProcs > 1:
		nf.took["hueProcs >= 2"]++
	default:
		nf.took["fold into processor 0"]++
	}
	if coreW == 0 {
		nf.took["coreW == 0"]++
	}

	// Hues: blocking over processors [coreProcs, nprocs).
	if hueProcs > 0 && hueW > 0 {
		if err := nf.blockRegion(hi, hue, 0, 0, coreProcs, hueProcs, &a.Fragments); err != nil {
			return nil, err
		}
	} else if hueW > 0 {
		// No dedicated hue processors: fold hues into processor 0.
		for _, b := range hue {
			a.Fragments = append(a.Fragments, Fragment{Level: 0, Box: b, Owner: 0})
		}
	}

	// Cores: coarse partition into groups, then bi-level blocking.
	if coreProcs > 0 && coreW > 0 {
		if err := nf.partitionCores(hi, prep.coreUnits, coreProcs, &a.Fragments); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// partitionCores coarse-partitions the (already SFC-ordered) core unit
// chain into processor groups and block-partitions each bi-level
// within its group. The chain is shared cache state: it is cut and
// scanned, never mutated.
func (nf *natureFableReference) partitionCores(hi *hierIndex, units []unit, coreProcs int, out *[]Fragment) error {
	groups := nf.Groups
	if groups < 1 {
		groups = 1
	}
	if groups > coreProcs {
		groups = coreProcs
	}
	w := make([]int64, len(units))
	for i, u := range units {
		w[i] = hi.columnWeight(u.box())
	}
	groupOf := cutChain(w, groups)

	// Processors per group, proportional to group workload.
	groupW := make([]int64, groups)
	var totalW int64
	for i, wi := range w {
		groupW[groupOf[i]] += wi
		totalW += wi
	}
	procStart := make([]int, groups+1)
	assigned := 0
	for g := 0; g < groups; g++ {
		procStart[g] = assigned
		share := 1
		if totalW > 0 {
			share = int(float64(coreProcs)*float64(groupW[g])/float64(totalW) + 0.5)
		}
		remainingGroups := groups - g - 1
		if share < 1 {
			share = 1
		}
		if assigned+share > coreProcs-remainingGroups {
			share = coreProcs - remainingGroups - assigned
			if share < 1 {
				share = 1
			}
		}
		assigned += share
	}
	procStart[groups] = coreProcs

	// Bi-level partitioning within each group.
	maxLevel := len(hi.h.Levels) - 1
	for g := 0; g < groups; g++ {
		if err := hi.check(); err != nil {
			return err
		}
		var gUnits geom.BoxList
		for i, u := range units {
			if groupOf[i] == g {
				gUnits = append(gUnits, u.box())
			}
		}
		if len(gUnits) == 0 {
			continue
		}
		gProcs := procStart[g+1] - procStart[g]
		if gProcs < 1 {
			gProcs = 1
		}
		for lo := 0; lo <= maxLevel; lo += 2 {
			band := lo + 1
			if band > maxLevel {
				band = maxLevel
			}
			if err := nf.blockRegion(hi, gUnits, lo, band, procStart[g], gProcs, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// blockRegion distributes the cells of levels [loLevel, hiLevel] lying
// over the base-space region across procs processors starting at
// procBase, by SFC-ordered blocking of the region's atomic units. With
// fractional blocking, the unit straddling a processor-portion boundary
// is split between the two portions instead of rounding to whole
// blocks, trading a little extra surface for tighter balance.
func (nf *natureFableReference) blockRegion(hi *hierIndex, region geom.BoxList, loLevel, hiLevel, procBase, procs int, out *[]Fragment) error {
	us := nf.AtomicUnit
	if us < 1 {
		us = 1
	}
	units, err := hi.unitsOfWeighted(region, us, func(ub geom.Box) int64 {
		return hi.bandWeight(ub, loLevel, hiLevel)
	})
	if err != nil {
		return err
	}
	orderUnitsByCurve(units, nf.Curve, us)
	return nf.blockOrdered(hi, units, loLevel, hiLevel, procBase, procs, out)
}

// blockOrdered is blockRegion's cutting half: it distributes an
// already SFC-ordered unit chain (possibly shared cache state — read
// only) across procs processors starting at procBase.
func (nf *natureFableReference) blockOrdered(hi *hierIndex, units []unit, loLevel, hiLevel, procBase, procs int, out *[]Fragment) error {
	owned := nf.appendCut(nil, units, unitWeights(units), procs)
	for i, ou := range owned {
		if i%ctxBatch == 0 {
			if err := hi.check(); err != nil {
				return err
			}
		}
		hi.bandFragments(ou.box, loLevel, hiLevel, procBase+ou.owner, out)
	}
	return nil
}

// TestNatureFableMatchesReference holds NatureFable to the body it
// replaced, fragment for fragment after the merge: on every distinct
// snapshot of the quick traces, on hierarchies from
// TestPartitionersOnRandomHierarchies' generator, on a flat base (no
// core) and on a base refined everywhere (no hue), for both curves,
// units 1, 2, 3 and 2^31, Q 1, 4 and 8, fractional and whole blocking,
// and nprocs from 1 to 100. Each call runs cold (the prep built by it)
// and warm (the prep served). Every branch of the processor split must
// have run, and every stored hue cover must be a fixed point of
// mergeFragments, which is what lets a one-processor hue skip the
// merge's work.
func TestNatureFableMatchesReference(t *testing.T) {
	ctx := context.Background()
	hs := quickHierarchies(t)
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 15; i++ {
		hs = append(hs, randomHierarchy(r))
	}
	full := grid.NewHierarchy(geom.NewBox2(0, 0, 16, 16), 2)
	full.Levels = append(full.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(0, 0, 32, 32)}})
	hs = append(hs, grid.NewHierarchy(geom.NewBox2(0, 0, 24, 24), 2), full)

	ref := &natureFableReference{took: map[string]int{}}
	covers := 0
	for hn, h := range hs {
		for _, curve := range []sfc.Curve{sfc.Hilbert, sfc.Morton} {
			for _, us := range []int{1, 2, 3, 1 << 31} {
				for _, q := range []int{1, 4, 8} {
					for _, frac := range []bool{true, false} {
						nf := &NatureFable{Curve: curve, AtomicUnit: us, Groups: q, FractionalBlocking: frac}
						ref.NatureFable = nf
						for _, np := range []int{1, 2, 3, 5, 16, 37, 100} {
							flushChainCaches()
							cold := mustPartition(t, nf, h, np)
							warm := mustPartition(t, nf, h, np)
							want := mustPartition(t, ref, h, np)
							for run, got := range map[string]*Assignment{"cold": cold, "warm": warm} {
								if got.NumProcs != want.NumProcs || !slices.Equal(got.Fragments, want.Fragments) {
									t.Fatalf("hierarchy %d %s np=%d %s: %d fragments, reference %d",
										hn, nf.Name(), np, run, len(got.Fragments), len(want.Fragments))
								}
							}
						}
					}
				}
				prep, err := nfPrepOf(newHierIndex(ctx, h), curve, us)
				if err != nil {
					t.Fatal(err)
				}
				if len(prep.hueCover) > 0 {
					covers++
					frags := make([]Fragment, len(prep.hueCover))
					for i, b := range prep.hueCover {
						frags[i] = Fragment{Level: 0, Box: b, Owner: 3}
					}
					if got := mergeUncancelled(slices.Clone(frags)); !slices.Equal(got, frags) {
						t.Fatalf("hierarchy %d %v u%d: mergeFragments moves the hue cover (%d boxes to %d)",
							hn, curve, us, len(frags), len(got))
					}
				}
			}
		}
	}
	for _, b := range []string{"hueW == 0", "hueProcs == 1", "hueProcs >= 2", "fold into processor 0", "coreW == 0"} {
		if ref.took[b] == 0 {
			t.Errorf("no call ran the %q branch: %v", b, ref.took)
		}
	}
	if covers == 0 {
		t.Error("no prep stored a hue cover")
	}
}

// bandWeight is columnWeight restricted to levels [lo, hiLevel]: how
// the reference bodies weight hue units and per-group core units.
func (hi *hierIndex) bandWeight(ub geom.Box, lo, hiLevel int) int64 {
	var w int64
	fine := ub
	for l := 0; l <= hiLevel && l < len(hi.h.Levels); l++ {
		if l > 0 {
			fine = fine.Refine(hi.h.RefRatio)
		}
		if l < lo {
			continue
		}
		w += hi.level(l).QueryVolume(fine) * hi.h.StepFactor(l)
	}
	return w
}

// nfPrepReference is nfPrepOf as it shipped before the prep was split
// into a base and bands, verbatim but for the layout it returns: the
// cores come from the union of every refined level's footprint, the
// hue units are weighted by a level-0 index query and the core units
// by their columns, and no cache is read or written. The core units'
// column weights are also returned as coreW, and the hue band is built
// the old way too: per hue unit, its level-0 bandFragments, with the
// unit's own weight (its volume) as its band weight.
func nfPrepReference(ctx context.Context, h *grid.Hierarchy, curve sfc.Curve, unitSize int) (*nfPrep, error) {
	hi := newHierIndex(ctx, h)
	var fp geom.BoxList
	for l := 1; l < len(h.Levels); l++ {
		fp = append(fp, h.Footprint(l)...)
	}
	var cores geom.BoxList
	if len(fp) > 0 {
		var err error
		if cores, err = makeCoreRegions(ctx, fp); err != nil {
			return nil, err
		}
	}
	hue := h.Levels[0].Boxes
	for _, c := range cores {
		hue = hue.SubtractBox(c)
	}
	hue, err := hue.SimplifyContext(ctx)
	if err != nil {
		return nil, err
	}
	hue.SortByLo()
	p := &nfPrep{nfBase: &nfBase{hue: hue, hueW: hue.TotalVolume()}}
	if p.hueW > 0 {
		units, err := hi.unitsOfWeighted(hue, unitSize, func(ub geom.Box) int64 {
			return hi.bandWeight(ub, 0, 0)
		})
		if err != nil {
			return nil, err
		}
		orderUnitsByCurve(units, curve, unitSize)
		p.hueUnits = units
		p.hueBand = coreBand{weights: unitWeights(units), start: make([]int32, len(units)+1)}
		var frags []Fragment
		for i, u := range units {
			n := len(frags)
			hi.bandFragments(u.box(), 0, 0, 0, &frags)
			var base fragBase
			for _, f := range frags[n:] {
				if p.hueBand.data, err = base.appendFrag(p.hueBand.data, f); err != nil {
					return nil, err
				}
			}
			p.hueBand.start[i+1] = int32(len(p.hueBand.data))
		}
		p.hueBand.n = len(frags)
		cover := make(geom.BoxList, len(frags))
		for i, f := range frags {
			cover[i] = f.Box
		}
		if p.hueCover, err = cover.SimplifyContext(ctx); err != nil {
			return nil, err
		}
		p.hueCover.SortByLo()
	}
	if len(cores) > 0 {
		units, err := hi.unitsOf(cores, unitSize)
		if err != nil {
			return nil, err
		}
		orderUnitsByCurve(units, curve, unitSize)
		p.coreUnits = units
		p.coreW = unitWeights(units)
		for lo := 0; lo < len(h.Levels); lo += 2 {
			band, err := hi.coreBandOf(units, lo, min(lo+1, len(h.Levels)-1))
			if err != nil {
				return nil, err
			}
			p.bands = append(p.bands, band)
		}
	}
	return p, nil
}

// prepMismatch names the first field in which the composite prep got
// differs from the reference's want, or returns "".
func prepMismatch(got, want *nfPrep) string {
	boxes := func(us []unit) []geom.Box {
		bs := make([]geom.Box, len(us))
		for i, u := range us {
			bs[i] = u.box()
		}
		return bs
	}
	switch {
	case !slices.Equal(got.hue, want.hue):
		return "hue"
	case got.hueW != want.hueW:
		return "hueW"
	case !slices.Equal(boxes(got.hueUnits), boxes(want.hueUnits)):
		return "hue unit boxes"
	case !slices.Equal(got.hueBand.weights, want.hueBand.weights) ||
		!slices.Equal(got.hueBand.start, want.hueBand.start) ||
		got.hueBand.n != want.hueBand.n || !slices.Equal(got.hueBand.data, want.hueBand.data):
		return "hue band"
	case !slices.Equal(got.hueCover, want.hueCover):
		return "hue cover"
	case !slices.Equal(boxes(got.coreUnits), boxes(want.coreUnits)):
		return "core unit boxes"
	case !slices.Equal(got.coreW, want.coreW):
		return "coreW"
	case len(got.bands) != len(want.bands):
		return "band count"
	}
	for b := range want.bands {
		g, w := got.bands[b], want.bands[b]
		if !slices.Equal(g.weights, w.weights) || !slices.Equal(g.start, w.start) || g.n != w.n || !slices.Equal(g.data, w.data) {
			return fmt.Sprintf("band %d", b)
		}
	}
	return ""
}

// prepChain is a hand-built regrid chain over testHierarchy, each step
// with whether it must build a new base. The steps keep levels 0-1
// while replacing the finer levels, grow and shrink the level count,
// change only the ratio, only the domain, and then level 1; the last
// two steps share a base, and the last one's level 4 is the level 2
// before it, which must not share a band.
func prepChain(t *testing.T) ([]*grid.Hierarchy, []bool) {
	t.Helper()
	h0 := testHierarchy()
	l2 := grid.Level{Boxes: geom.BoxList{geom.NewBox2(8, 8, 20, 20), geom.NewBox2(80, 80, 100, 110)}}
	l3 := grid.Level{Boxes: geom.BoxList{geom.NewBox2(20, 20, 36, 36)}}
	l4 := grid.Level{Boxes: geom.BoxList{geom.NewBox2(44, 44, 60, 60)}}
	with := func(h *grid.Hierarchy, levels ...grid.Level) *grid.Hierarchy {
		n := h.Clone()
		n.Levels = append(n.Levels[:2], levels...)
		return n
	}
	replaced := with(h0, l2)
	grown := with(h0, l2, l3)
	grown2 := with(h0, l2, l3, l4)
	shrunk := with(h0)
	ratio := shrunk.Clone()
	ratio.RefRatio = 4
	x := grid.Level{Boxes: geom.BoxList{geom.NewBox2(40, 40, 48, 48)}}
	newL1 := grid.NewHierarchy(h0.Domain, 2)
	newL1.Levels = append(newL1.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(2, 2, 30, 30)}}, x)
	deep := with(newL1,
		grid.Level{Boxes: geom.BoxList{geom.NewBox2(8, 8, 16, 16)}},
		grid.Level{Boxes: geom.BoxList{geom.NewBox2(20, 20, 24, 24)}},
		x)
	valid := []*grid.Hierarchy{h0, replaced, grown, grown2, shrunk, ratio, newL1, deep}
	for i, h := range valid {
		if err := h.Validate(); err != nil {
			t.Fatalf("valid chain hierarchy %d: %v", i, err)
		}
	}
	// Level 0 no longer covers the domain, so Validate refuses this one;
	// nothing under test reads the domain, and the key must still hold it.
	domain := shrunk.Clone()
	domain.Domain = geom.NewBox2(0, 0, 48, 48)
	return []*grid.Hierarchy{h0, replaced, grown, grown2, shrunk, ratio, domain, newL1, deep},
		[]bool{true, false, false, false, false, true, true, true, false}
}

// TestNatureFablePrepMatchesReference holds the prep assembled from
// shared bases and bands to the body it replaced, field by field, on
// every distinct quick-trace snapshot in trace order,
// TestNatureFableMatchesReference's random hierarchies and a
// hand-built chain, for both curves and units 1, 2, 3 and 2^31.
// Nothing is flushed between hierarchies, so consecutive ones share
// bases and bands; the hand-built chain checks which of its steps build
// a base.
func TestNatureFablePrepMatchesReference(t *testing.T) {
	ctx := context.Background()
	hs := quickHierarchies(t)
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 15; i++ {
		hs = append(hs, randomHierarchy(r))
	}
	chain, builds := prepChain(t)
	flushChainCaches()
	hitsBefore, _, _ := procChains.bases.Stats()
	for _, curve := range []sfc.Curve{sfc.Hilbert, sfc.Morton} {
		for _, us := range []int{1, 2, 3, 1 << 31} {
			for hn, h := range append(slices.Clone(hs), chain...) {
				_, missesBefore, _ := procChains.bases.Stats()
				got, err := nfPrepOf(newHierIndex(ctx, h), curve, us)
				if err != nil {
					t.Fatal(err)
				}
				want, err := nfPrepReference(ctx, h, curve, us)
				if err != nil {
					t.Fatal(err)
				}
				if field := prepMismatch(got, want); field != "" {
					t.Fatalf("hierarchy %d %v u%d: %s differs from the reference", hn, curve, us, field)
				}
				if c := hn - len(hs); c >= 0 {
					if _, missesAfter, _ := procChains.bases.Stats(); (missesAfter > missesBefore) != builds[c] {
						t.Errorf("%v u%d chain step %d: built a base %v, want %v", curve, us, c, missesAfter > missesBefore, builds[c])
					}
				}
			}
		}
	}
	if hitsAfter, _, _ := procChains.bases.Stats(); hitsAfter == hitsBefore {
		t.Error("no two hierarchies shared a base")
	}
}

// TestNatureFablePrepSharing pins the sharing as build counts: walking
// the four quick traces' chains of distinct snapshots with the default
// NatureFable at 16 processors builds one base per distinct
// (domain, ratio, level 0, level 1) and one band per distinct bi-level
// content past the first over a distinct base, and a second walk builds
// nothing.
func TestNatureFablePrepSharing(t *testing.T) {
	const wantBases, wantBands = 17, 34
	hs := quickHierarchies(t)
	levels := func(ls []grid.Level) string {
		s := fmt.Sprintf("%d levels", len(ls))
		for _, l := range ls {
			s += fmt.Sprint(l.Boxes)
		}
		return s
	}
	bases, bands := map[string]bool{}, map[string]bool{}
	for _, h := range hs {
		prefix := fmt.Sprint(h.Domain, h.RefRatio, levels(h.Levels[:min(2, len(h.Levels))]))
		bases[prefix] = true
		if len(h.Levels) < 2 || len(h.Footprint(1)) == 0 {
			continue
		}
		for lo := 2; lo < len(h.Levels); lo += 2 {
			bands[fmt.Sprint(prefix, lo, levels(h.Levels[lo:min(lo+2, len(h.Levels))]))] = true
		}
	}

	nf := NewNatureFable()
	walk := func() (bases, bands uint64) {
		_, b0, _ := procChains.bases.Stats()
		_, d0, _ := procChains.bands.Stats()
		for _, h := range hs {
			mustPartition(t, nf, h, 16)
		}
		_, b1, _ := procChains.bases.Stats()
		_, d1, _ := procChains.bands.Stats()
		return b1 - b0, d1 - d0
	}
	flushChainCaches()
	builtBases, builtBands := walk()
	t.Logf("%d snapshots: %d bases, %d bands built", len(hs), builtBases, builtBands)
	if builtBases != uint64(len(bases)) || builtBands != uint64(len(bands)) {
		t.Errorf("built %d bases, %d bands; want %d, %d",
			builtBases, builtBands, len(bases), len(bands))
	}
	if builtBases != wantBases || builtBands != wantBands {
		t.Errorf("built %d bases, %d bands; pinned %d, %d",
			builtBases, builtBands, wantBases, wantBands)
	}
	_, missesBefore, _, _, _ := CacheStats()
	if builtBases, builtBands := walk(); builtBases+builtBands != 0 {
		t.Errorf("second walk built %d bases, %d bands", builtBases, builtBands)
	}
	if _, missesAfter, _, _, _ := CacheStats(); missesAfter != missesBefore {
		t.Errorf("second walk missed %d times", missesAfter-missesBefore)
	}
}

// BenchmarkNatureFableWarm times what a warm NatureFable call still
// does, on what a session step asks for: the paper's default
// configuration over every distinct quick-trace snapshot at each count
// of the nprocs ladder bench/'s regrid-sessions walks (16 to 36 in
// fours), with every prep cached.
func BenchmarkNatureFableWarm(b *testing.B) {
	ctx := context.Background()
	hs := quickHierarchies(b)
	ladder := []int{16, 20, 24, 28, 32, 36}
	nf := NewNatureFable()
	for _, h := range hs {
		mustPartition(b, nf, h, ladder[0])
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, h := range hs {
			for _, np := range ladder {
				if _, err := nf.Partition(ctx, h, np); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(hs)*len(ladder)), "calls/op")
}

// BenchmarkDomainSFCWarm is BenchmarkNatureFableWarm for the paper's
// default DomainSFC: every chain cached, so a call pays for hashing the
// hierarchy, cutting the chain, building the level indexes its column
// queries need, and the fragments and merge.
func BenchmarkDomainSFCWarm(b *testing.B) {
	ctx := context.Background()
	hs := quickHierarchies(b)
	ladder := []int{16, 20, 24, 28, 32, 36}
	d := NewDomainSFC()
	for _, h := range hs {
		mustPartition(b, d, h, ladder[0])
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, h := range hs {
			for _, np := range ladder {
				if _, err := d.Partition(ctx, h, np); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(hs)*len(ladder)), "calls/op")
}

// BenchmarkNatureFableCold times what a session pays building preps: the
// paper's default configuration at 16 processors over every distinct
// quick-trace snapshot in chain order, every cache flushed once per
// iteration, so each snapshot builds its prep from the base and bands
// the snapshots before it left.
func BenchmarkNatureFableCold(b *testing.B) {
	ctx := context.Background()
	hs := quickHierarchies(b)
	nf := NewNatureFable()
	b.ReportAllocs()
	for b.Loop() {
		flushChainCaches()
		for _, h := range hs {
			if _, err := nf.Partition(ctx, h, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(hs)), "calls/op")
}
