package partition

import (
	"context"
	"fmt"

	"samr/internal/cluster"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/sfc"
)

// NatureFable is a hybrid partitioner modelled on the Nature+Fable
// tool the paper's experiments use ("Natural Regions + Fractional
// blocking and bi-level partitioning"). It follows the published
// structure:
//
//  1. Separate the homogeneous, unrefined (Hue) regions of the base
//     grid from the complex, refined (Core) regions, strictly
//     domain-based: each Core carries its portion of the base grid plus
//     every overlaid refined grid.
//  2. Distribute processors between Hues and Cores in proportion to
//     workload.
//  3. Hues: expert blocking — chop into atomic blocks, order along a
//     space-filling curve, cut into equal-load portions.
//  4. Cores: a coarse partitioning maps core units onto processor
//     groups (meta-partitions); within each group, refinement levels
//     are clustered into bi-levels (0-1, 2-3, 4-...) and the same
//     blocking machinery distributes each bi-level over the group.
//
// Parameters steer component behaviour as in the original (atomic unit,
// group count Q, fractional blocking), which is what makes the tool
// configurable by the meta-partitioner.
type NatureFable struct {
	// Curve orders blocks and core units.
	Curve sfc.Curve
	// AtomicUnit is the block edge length in base cells.
	AtomicUnit int
	// Groups is Q: the number of processor groups the cores are coarse-
	// partitioned into (clamped to the processors available for cores).
	Groups int
	// FractionalBlocking splits blocks at processor-portion boundaries
	// instead of rounding to whole blocks, trading communication for
	// balance.
	FractionalBlocking bool
}

// NewNatureFable returns the paper's static "default" configuration.
func NewNatureFable() *NatureFable {
	return &NatureFable{Curve: sfc.Hilbert, AtomicUnit: 2, Groups: 4, FractionalBlocking: true}
}

// Name implements Partitioner.
func (nf *NatureFable) Name() string {
	fb := "whole"
	if nf.FractionalBlocking {
		fb = "frac"
	}
	return fmt.Sprintf("nature+fable-%s-u%d-q%d-%s", nf.Curve, nf.AtomicUnit, nf.Groups, fb)
}

// Partition implements Partitioner. Cancellation is polled per phase
// (hue separation, coarse core cut, per-group bi-level blocking) and
// per unit batch inside the blocking machinery. The hue/core
// separation and both reusable unit chains — everything independent of
// nprocs — are served from the content-addressed prep cache; the
// processor split, chain cuts, and per-group bi-level blocking run per
// call.
func (nf *NatureFable) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(nf.fragments(ctx, h, nprocs))
}

// fragments is Partition before coalescing: the hue blocks, then each
// core group's bi-levels, one fragment per owned unit per level box it
// meets.
func (nf *NatureFable) fragments(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
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

// makeCoreRegions returns disjoint base-space boxes covering the given
// refined footprint: the "natural regions" separation.
func makeCoreRegions(fp geom.BoxList) geom.BoxList {
	regions := cluster.MakeDisjoint(fp).Simplify()
	regions.SortByLo()
	return regions
}

// coreRegions returns disjoint base-space boxes covering all refined
// footprints.
func (nf *NatureFable) coreRegions(h *grid.Hierarchy) geom.BoxList {
	fp := h.RefinedFootprint()
	if len(fp) == 0 {
		return nil
	}
	return makeCoreRegions(fp)
}

// partitionCores coarse-partitions the (already SFC-ordered) core unit
// chain into processor groups and block-partitions each bi-level
// within its group. The chain is shared cache state: it is cut and
// scanned, never mutated.
func (nf *NatureFable) partitionCores(hi *hierIndex, units []unit, coreProcs int, out *[]Fragment) error {
	groups := nf.Groups
	if groups < 1 {
		groups = 1
	}
	if groups > coreProcs {
		groups = coreProcs
	}
	groupOf := cutChain(units, groups)

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
func (nf *NatureFable) blockRegion(hi *hierIndex, region geom.BoxList, loLevel, hiLevel, procBase, procs int, out *[]Fragment) error {
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
func (nf *NatureFable) blockOrdered(hi *hierIndex, units []unit, loLevel, hiLevel, procBase, procs int, out *[]Fragment) error {
	owned := nf.cutUnits(units, procs)
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

// ownedUnit is a base-space box with its processor-portion index.
type ownedUnit struct {
	box   geom.Box
	owner int
}

// cutUnits cuts the ordered units into parts portions. Whole-block mode
// delegates to cutChain; fractional mode splits the unit that straddles
// each portion boundary proportionally to the remaining weight.
func (nf *NatureFable) cutUnits(units []unit, parts int) []ownedUnit {
	if !nf.FractionalBlocking {
		owners := cutChain(units, parts)
		out := make([]ownedUnit, len(units))
		for i, u := range units {
			out[i] = ownedUnit{box: u.box, owner: owners[i]}
		}
		return out
	}
	if parts < 1 {
		parts = 1
	}
	var total int64
	for _, u := range units {
		total += u.weight
	}
	var out []ownedUnit
	var acc int64
	p := 0
	for _, u := range units {
		rem := u
		for p < parts-1 {
			boundary := total * int64(p+1) / int64(parts)
			if acc+rem.weight <= boundary || rem.weight == 0 {
				break
			}
			// The unit straddles the boundary: split off the share that
			// belongs to portion p (area-proportional approximation of
			// the weight share).
			share := float64(boundary-acc) / float64(rem.weight)
			d := rem.box.LongestDim()
			at := rem.box.Lo[d] + int(share*float64(rem.box.Size(d))+0.5)
			lo, hi := rem.box.ChopDim(d, at)
			if !lo.Empty() {
				out = append(out, ownedUnit{box: lo, owner: p})
			}
			// Weight consumed by the lower piece, proportionally.
			consumed := int64(share * float64(rem.weight))
			acc += consumed
			rem = unit{box: hi, weight: rem.weight - consumed}
			p++
			if hi.Empty() {
				rem.weight = 0
				break
			}
		}
		if !rem.box.Empty() {
			out = append(out, ownedUnit{box: rem.box, owner: p})
			acc += rem.weight
		}
	}
	return out
}
