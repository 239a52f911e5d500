package partition

import (
	"context"
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
// as a slice, and that fragments records in took which branch of the
// processor split it ran. It shares the prep cache with NatureFable,
// reading only the fields the old prep had.
type natureFableReference struct {
	*NatureFable
	took map[string]int
}

func (nf *natureFableReference) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(nf.fragments(ctx, h, nprocs))
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
	sig := h.Signature()
	hi, err := sharedHierIndex(ctx, h, sig)
	if err != nil {
		return nil, err
	}
	prep, err := nfPrepOf(hi, sig, nf.Curve, us)
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
		if err := nf.blockOrdered(hi, prep.hueUnits, 0, 0, coreProcs, hueProcs, &a.Fragments); err != nil {
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
	groupOf := cutChain(unitWeights(units), groups)

	// Processors per group, proportional to group workload.
	groupW := make([]int64, groups)
	var totalW int64
	for i, u := range units {
		groupW[groupOf[i]] += u.weight
		totalW += u.weight
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
				gUnits = append(gUnits, u.box)
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
	owned := nf.cutUnits(units, unitWeights(units), procs)
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
				sig := h.Signature()
				hi, err := sharedHierIndex(ctx, h, sig)
				if err != nil {
					t.Fatal(err)
				}
				prep, err := nfPrepOf(hi, sig, curve, us)
				if err != nil {
					t.Fatal(err)
				}
				if len(prep.hueCover) > 0 {
					covers++
					frags := make([]Fragment, len(prep.hueCover))
					for i, b := range prep.hueCover {
						frags[i] = Fragment{Level: 0, Box: b, Owner: 3}
					}
					if got := mergeFragments(slices.Clone(frags)); !slices.Equal(got, frags) {
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
