package partition

import (
	"context"
	"fmt"
	"slices"
	"strconv"

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
	return "nature+fable-" + nf.Curve.String() + "-u" + strconv.Itoa(nf.AtomicUnit) + "-q" + strconv.Itoa(nf.Groups) + "-" + fb
}

// Partition implements Partitioner. Everything independent of nprocs —
// the hue/core separation, both unit chains, the hue's band and merged
// cover, and each core unit's weight and fragments per bi-level — comes
// from the prep, assembled from the content-addressed base and band
// caches. What runs per call is the processor split between hues and
// cores, the hue cut by its band (or, with one hue processor, the
// stored cover), the coarse cut of the core chain into groups, and per
// group and bi-level a cut by the stored weights that labels whole
// units' stored fragments and clips split units' fragments to their
// pieces; then mergeFragments. Cancellation is polled per group and per
// unit batch.
func (nf *NatureFable) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(ctx, h, nprocs, nf.fragments)
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
	// The hue and core regions tile the base level, so its chop is what
	// the two chains hold.
	if err := checkUnits(h.Levels[0].Boxes, us); err != nil {
		return nil, err
	}
	hi := newHierIndex(ctx, h)
	prep, err := nfPrepOf(hi, nf.Curve, us, false)
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

	a := &Assignment{NumProcs: nprocs, Fragments: make([]Fragment, 0, prep.fragmentsHint(hueProcs, coreProcs))}
	// Hues: blocking over processors [coreProcs, nprocs).
	switch {
	case hueW == 0:
	case hueProcs == 1:
		// One processor owns every hue unit whole, so the hue's
		// fragments are the prep's units' level-0 fragments, and the
		// stored cover is what mergeFragments makes of them: core owners
		// are below coreProcs, so the (level 0, coreProcs) group holds
		// hue fragments only, and the cover, simplified already, has no
		// mergeable pair, so the merge's SimplifyContext and sort return
		// it unchanged.
		for _, b := range prep.hueCover {
			a.Fragments = append(a.Fragments, Fragment{Level: 0, Box: b, Owner: coreProcs})
		}
	case hueProcs > 1:
		if err := nf.blockBand(hi, &prep.hueBand, prep.hueUnits, 0, len(prep.hueUnits), coreProcs, hueProcs, &a.Fragments); err != nil {
			return nil, err
		}
	default:
		// No dedicated hue processors: fold hues into processor 0.
		for _, b := range hue {
			a.Fragments = append(a.Fragments, Fragment{Level: 0, Box: b, Owner: 0})
		}
	}

	// Cores: coarse partition into groups, then bi-level blocking.
	if coreProcs > 0 && coreW > 0 {
		if err := nf.partitionCores(hi, prep, coreProcs, &a.Fragments); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// fragmentsHint is the capacity a call's pre-merge fragment list
// starts with, from what the prep stores: the hue's share (its cover
// when one processor owns it whole, its band's fragments and one per
// hue processor when several block it, its boxes when there is no hue
// processor) and every core band's fragments, plus one per band and
// core processor for the pieces the cuts split off. No list of the quick traces' snapshots at
// 1, 3, 16, 20, 24, 36 or 64 processors outgrows it; one that does
// grows as any slice does.
func (p *nfPrep) fragmentsHint(hueProcs, coreProcs int) int {
	n := 0
	switch {
	case p.hueW == 0:
	case hueProcs == 1:
		n = len(p.hueCover)
	case hueProcs > 1:
		n = p.hueBand.n + hueProcs
	default:
		n = len(p.hue)
	}
	if coreProcs > 0 {
		for _, b := range p.bands {
			n += b.n + coreProcs
		}
	}
	return n
}

// makeCoreRegions returns disjoint base-space boxes covering the given
// refined footprint: the "natural regions" separation. Both of its
// passes are quadratic in the footprint's length and poll ctx.
func makeCoreRegions(ctx context.Context, fp geom.BoxList) (geom.BoxList, error) {
	regions, err := cluster.MakeDisjoint(ctx, fp)
	if err == nil {
		regions, err = regions.SimplifyContext(ctx)
	}
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	regions.SortByLo()
	return regions, nil
}

// partitionCores coarse-partitions the prep's (SFC-ordered) core unit
// chain, by the units' column weights, into processor groups and
// block-partitions each bi-level within its group. The prep is shared
// cache state: it is cut and scanned, never mutated.
func (nf *NatureFable) partitionCores(hi *hierIndex, prep *nfPrep, coreProcs int, out *[]Fragment) error {
	units, w := prep.coreUnits, prep.coreW
	groups := nf.Groups
	if groups < 1 {
		groups = 1
	}
	if groups > coreProcs {
		groups = coreProcs
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

	// Bi-level partitioning within each group. groupOf is non-decreasing,
	// so a group is one contiguous range of the chain.
	for g, start := 0, 0; g < groups; g++ {
		if err := hi.check(); err != nil {
			return err
		}
		end := start
		for end < len(units) && groupOf[end] == g {
			end++
		}
		if end == start {
			continue
		}
		gProcs := procStart[g+1] - procStart[g]
		if gProcs < 1 {
			gProcs = 1
		}
		for b := range prep.bands {
			if err := nf.blockBand(hi, &prep.bands[b], units, start, end, procStart[g], gProcs, out); err != nil {
				return err
			}
		}
		start = end
	}
	return nil
}

// blockBand distributes one bi-level of the core units [start, end)
// across procs processors starting at procBase, cutting the units by
// their band weights. With fractional blocking, the unit straddling a
// processor-portion boundary is split between the two portions instead
// of rounding to whole blocks, trading a little extra surface for
// tighter balance. A whole unit takes its stored band fragments. A
// split piece takes them clipped to the piece refined to each level,
// which is what bandFragments gives the piece: a level box meets the
// piece only if it meets the unit, and the stored fragments keep the
// index query's box order.
func (nf *NatureFable) blockBand(hi *hierIndex, band *coreBand, units []unit, start, end, procBase, procs int, out *[]Fragment) error {
	hi.cut = nf.appendCut(hi.cut[:0], units[start:end], band.weights[start:end], procs)
	for k, ou := range hi.cut {
		if k%ctxBatch == 0 {
			if err := hi.check(); err != nil {
				return err
			}
		}
		i := start + ou.src
		frags := band.unitFragments(i)
		owner := procBase + ou.owner
		if ou.box == units[i].box() {
			for frags.more() {
				f := frags.next()
				f.Owner = owner
				*out = append(*out, f)
			}
			continue
		}
		fine, l := ou.box, 0
		for frags.more() {
			f := frags.next()
			for ; l < f.Level; l++ {
				fine = fine.Refine(hi.h.RefRatio)
			}
			if iv := f.Box.Intersect(fine); !iv.Empty() {
				*out = append(*out, Fragment{Level: l, Box: iv, Owner: owner})
			}
		}
	}
	return nil
}

// ownedUnit is a base-space box with its processor-portion index and
// src, the index in the cut chain of the unit it is or is a piece of.
type ownedUnit struct {
	box   geom.Box
	owner int
	src   int
}

// appendCut cuts the ordered units into parts portions, unit i
// weighing w[i] (the units give the boxes; their own weights are not
// read), appending to out, so that a call reuses one slice for all its
// cuts. Whole-block mode delegates to cutChain; fractional mode splits
// the unit that straddles each portion boundary proportionally to the
// remaining weight.
func (nf *NatureFable) appendCut(out []ownedUnit, units []unit, w []int64, parts int) []ownedUnit {
	if !nf.FractionalBlocking {
		out = slices.Grow(out, len(units))
		for i, owner := range cutChain(w, parts) {
			out = append(out, ownedUnit{box: units[i].box(), owner: owner, src: i})
		}
		return out
	}
	if parts < 1 {
		parts = 1
	}
	var total int64
	for _, wi := range w {
		total += wi
	}
	out = slices.Grow(out, len(units)+parts)
	var acc int64
	p := 0
	for i, u := range units {
		box, weight := u.box(), w[i]
		for p < parts-1 {
			boundary := total * int64(p+1) / int64(parts)
			if acc+weight <= boundary || weight == 0 {
				break
			}
			// The unit straddles the boundary: split off the share that
			// belongs to portion p (area-proportional approximation of
			// the weight share).
			share := float64(boundary-acc) / float64(weight)
			d := box.LongestDim()
			at := box.Lo[d] + int(share*float64(box.Size(d))+0.5)
			lo, hi := box.ChopDim(d, at)
			if !lo.Empty() {
				out = append(out, ownedUnit{box: lo, owner: p, src: i})
			}
			// Weight consumed by the lower piece, proportionally.
			consumed := int64(share * float64(weight))
			acc += consumed
			box, weight = hi, weight-consumed
			p++
			if hi.Empty() {
				weight = 0
				break
			}
		}
		if !box.Empty() {
			out = append(out, ownedUnit{box: box, owner: p, src: i})
			acc += weight
		}
	}
	return out
}
