// Content-addressed memoization under the unit-based partitioners.
//
// The atomic-unit decomposition of a hierarchy — chopping a base-space
// region into unit-sized boxes, weighting each by the workload of the
// level band above it, and ordering the result along a space-filling
// curve — depends only on (hierarchy content, curve, unit size, band),
// never on the processor count. So does the geometry a unit contributes
// to an assignment: which level boxes its column meets, and how. Only
// the owner label depends on nprocs. The chain caches below therefore
// key those artifacts by the hierarchy's content signature and share
// them across DomainSFC, the hybrid family, and every nprocs sweep.
//
// What each partitioner still does per call differs. DomainSFC cuts its
// cached chain and queries the level indexes for every unit's column
// fragments. NatureFable's prep holds everything nprocs-independent it
// uses: the hue and core chains, the hue's merged level-0 cover, and,
// per bi-level, every core unit's band weight and owner-free band
// fragments. A warm NatureFable call splits the processors, cuts
// chains, labels whole units' stored fragments, and clips the stored
// fragments of the few units a fractional cut splits; it makes no index
// query.
//
// Cached artifacts are immutable: readers cut and scan them but never
// reorder or reweight in place. SAMR traces are regrid-sparse
// (consecutive snapshots are usually content-identical), experiments
// replay the same snapshots under many configurations, and a service
// asked for one hierarchy at several processor counts hits the prep on
// every count after the first, which is what makes this layer pay.
//
// Everything here is bit-identical to the uncached path by
// construction: the cached build runs exactly the code a cold call
// runs, and equal signatures imply equal hierarchy encodings, so equal
// inputs. A cancelled leader stores nothing (memo.Cache contract), so
// an aborted Partition never poisons the cache for later calls.
package partition

import (
	"context"
	"sort"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/memo"
	"samr/internal/sfc"
)

// chainKey addresses one cached decomposition artifact: the hierarchy
// content hash plus the curve and (clamped) atomic-unit size. The band
// and region of each artifact are implied by the cache it lives in —
// domainChains carry the full column over the base domain, nfPreps
// carry the hybrid's hue band (levels 0-0 over the hue region) and
// core column (all levels over the core region), both pure functions
// of the hierarchy content.
type chainKey struct {
	sig   geom.Signature
	curve sfc.Curve
	unit  int
}

// Cache bounds: on a paper-scale snapshot (32² base, five levels, unit
// 2) a NatureFable prep holds about 17 KB of units and 8 KB of bi-level
// artifacts, a domain chain about as much as the units, and experiment
// pipelines revisit a few hundred distinct snapshots, so these bounds
// keep the whole working set resident without letting a long-running
// daemon grow unbounded.
const (
	chainCacheCap = 512
	indexCacheCap = 256
)

var (
	// domainChains caches the DomainSFC artifact: the base domain
	// chopped into units, weighted by the full column, SFC-ordered.
	domainChains = memo.New[chainKey, []unit](chainCacheCap)
	// nfPreps caches the Nature+Fable pre-partitioning artifact (hue
	// separation, the hue and coarse-core unit chains, the hue cover
	// and the core chain's bi-level weights and fragments).
	nfPreps = memo.New[chainKey, *nfPrep](chainCacheCap)
	// levelIndexes caches one BoxIndex per hierarchy level, keyed by
	// content signature. The indexes capture cloned box lists, so a
	// cached entry never aliases caller-owned storage.
	levelIndexes = memo.New[geom.Signature, []*geom.BoxIndex](indexCacheCap)
)

// CacheStats returns the summed hit/miss/shared counters and occupancy
// of the partition-layer memo caches (unit chains, hybrid preps, level
// indexes), for /v1/stats and samrbench -cachestats.
func CacheStats() (hits, misses, shared uint64, entries, capacity int) {
	for _, s := range []interface {
		Stats() (uint64, uint64, uint64)
		Len() int
		Capacity() int
	}{domainChains, nfPreps, levelIndexes} {
		h, m, sh := s.Stats()
		hits += h
		misses += m
		shared += sh
		entries += s.Len()
		capacity += s.Capacity()
	}
	return
}

// flushChainCaches drops every cached artifact (tests use it to
// compare memoized results against cold recomputation).
func flushChainCaches() {
	domainChains.Flush()
	nfPreps.Flush()
	levelIndexes.Flush()
}

// sharedHierIndex returns the per-level BoxIndexes of h, cached by
// content signature, wrapped in a per-call hierIndex carrying the
// call's context and scratch buffer. The indexes are built over cloned
// box lists and are safe for concurrent queries; the hierIndex wrapper
// itself must not be shared across goroutines.
func sharedHierIndex(ctx context.Context, h *grid.Hierarchy, sig geom.Signature) (*hierIndex, error) {
	levels, _, err := levelIndexes.GetOrCompute(ctx, sig, func() ([]*geom.BoxIndex, error) {
		ls := make([]*geom.BoxIndex, len(h.Levels))
		for l, lev := range h.Levels {
			ls[l] = geom.NewBoxIndex(lev.Boxes.Clone())
		}
		return ls, nil
	})
	if err != nil {
		return nil, err
	}
	if len(levels) != len(h.Levels) {
		// A content-hash collision would be needed to get here; rebuild
		// privately rather than serve a wrong shape.
		return newHierIndex(ctx, h), nil
	}
	return &hierIndex{ctx: ctx, h: h, levels: levels}, nil
}

// domainChain returns the SFC-ordered full-column unit chain of h's
// base domain, cached by (signature, curve, unit size). hi carries the
// calling request's context: a cancelled build stores nothing.
func domainChain(hi *hierIndex, sig geom.Signature, curve sfc.Curve, unitSize int) ([]unit, error) {
	chain, _, err := domainChains.GetOrCompute(hi.ctx, chainKey{sig: sig, curve: curve, unit: unitSize}, func() ([]unit, error) {
		units, err := hi.unitsOf(hi.h.Levels[0].Boxes, unitSize)
		if err != nil {
			return nil, err
		}
		orderUnitsByCurve(units, curve, unitSize)
		return units, nil
	})
	return chain, err
}

// nfPrep is the nprocs-independent part of a Nature+Fable partition:
// the hue/core natural-region separation, the two unit chains (hue
// band, coarse core column), the hue's merged cover, and each core
// unit's weight and fragments per bi-level. What stays per call is what
// depends on nprocs: the processor split, the chain cuts, the owner
// labels, and clipping the units a fractional cut splits.
type nfPrep struct {
	// hue is the unrefined base region (base domain minus core
	// footprints), simplified and sorted.
	hue geom.BoxList
	// hueW is the hue workload (level 0 only, step factor 1).
	hueW int64
	// hueUnits is the hue region chopped and weighted over the base
	// band (levels 0-0), SFC-ordered.
	hueUnits []unit
	// hueCover is what mergeFragments makes of the hue when one
	// processor owns it: the hue units' level-0 fragments in chain
	// order, simplified and sorted by Lo.
	hueCover geom.BoxList
	// coreUnits is the core region chopped and weighted over the full
	// column, SFC-ordered: the coarse-partitioning chain.
	coreUnits []unit
	// bands holds the core chain's bi-levels (levels 0-1, 2-3, 4-…), in
	// the order every core group blocks them.
	bands []coreBand
}

// coreBand is one bi-level of the core chain: per core unit, the
// band's workload over the unit and the band's fragments over it,
// without an owner. Unit i's fragments are frags[start[i]:start[i+1]],
// exactly what bandFragments appends for the unit, in that order.
type coreBand struct {
	weights []int64
	start   []int32
	frags   []bandFrag
}

// bandFrag is a fragment without its owner in 20 bytes, against a
// Fragment's 72: Validate bounds every level's index space to ±2^30, so
// the corners fit int32 exactly, and every box the partitioners are
// given is planar with the third component pinned to [0, 1), which box
// restores.
type bandFrag struct {
	level          uint8
	x0, y0, x1, y1 int32
}

func (f bandFrag) box() geom.Box {
	return geom.NewBox2(int(f.x0), int(f.y0), int(f.x1), int(f.y1))
}

// nfPrepOf returns the cached Nature+Fable pre-partitioning artifact
// for h under (curve, unit size).
func nfPrepOf(hi *hierIndex, sig geom.Signature, curve sfc.Curve, unitSize int) (*nfPrep, error) {
	prep, _, err := nfPreps.GetOrCompute(hi.ctx, chainKey{sig: sig, curve: curve, unit: unitSize}, func() (*nfPrep, error) {
		h := hi.h
		fp := h.RefinedFootprint()
		var cores geom.BoxList
		if len(fp) > 0 {
			cores = makeCoreRegions(fp)
		}
		hue := h.Levels[0].Boxes.Subtract(cores).Simplify()
		hue.SortByLo()
		if err := hi.check(); err != nil {
			return nil, err
		}
		p := &nfPrep{hue: hue, hueW: hue.TotalVolume()}
		if p.hueW > 0 {
			units, err := hi.unitsOfWeighted(hue, unitSize, func(ub geom.Box) int64 {
				return hi.bandWeight(ub, 0, 0)
			})
			if err != nil {
				return nil, err
			}
			orderUnitsByCurve(units, curve, unitSize)
			p.hueUnits = units
			var frags []Fragment
			for _, u := range units {
				hi.bandFragments(u.box, 0, 0, 0, &frags)
			}
			cover := make(geom.BoxList, len(frags))
			for i, f := range frags {
				cover[i] = f.Box
			}
			p.hueCover = cover.Simplify()
			p.hueCover.SortByLo()
		}
		if len(cores) > 0 {
			units, err := hi.unitsOf(cores, unitSize)
			if err != nil {
				return nil, err
			}
			orderUnitsByCurve(units, curve, unitSize)
			p.coreUnits = units
			for lo := 0; lo < len(h.Levels); lo += 2 {
				band, err := hi.coreBandOf(units, lo, min(lo+1, len(h.Levels)-1))
				if err != nil {
					return nil, err
				}
				p.bands = append(p.bands, band)
			}
		}
		return p, nil
	})
	return prep, err
}

// coreBandOf builds the bi-level artifact of levels [lo, hiLevel] over
// the core chain. A unit's band weight is its fragments' volumes times
// their levels' step factors: bandWeight sums the same products, since
// the fragments are exactly the non-empty overlaps it measures.
func (hi *hierIndex) coreBandOf(units []unit, lo, hiLevel int) (coreBand, error) {
	b := coreBand{weights: make([]int64, len(units)), start: make([]int32, len(units)+1)}
	var frags []Fragment
	for i, u := range units {
		if i%ctxBatch == 0 {
			if err := hi.check(); err != nil {
				return coreBand{}, err
			}
		}
		frags = frags[:0]
		hi.bandFragments(u.box, lo, hiLevel, 0, &frags)
		for _, f := range frags {
			b.weights[i] += f.Box.Volume() * hi.h.StepFactor(f.Level)
			b.frags = append(b.frags, bandFrag{level: uint8(f.Level),
				x0: int32(f.Box.Lo[0]), y0: int32(f.Box.Lo[1]), x1: int32(f.Box.Hi[0]), y1: int32(f.Box.Hi[1])})
		}
		b.start[i+1] = int32(len(b.frags))
	}
	return b, nil
}

// orderUnitsByCurve sorts units stably along the curve (in place) by
// the index of each unit's lower corner coarsened by the unit size.
// The sort orders an index permutation keyed by a parallel key slice
// and applies it with a cycle walk, so no per-call pair slice or
// second unit copy is allocated.
func orderUnitsByCurve(units []unit, c sfc.Curve, unitSize int) {
	n := len(units)
	if n < 2 {
		return
	}
	keys := make([]int64, n)
	perm := make([]int, n)
	for i, u := range units {
		keys[i] = sfc.Index(c, u.box.Lo[0]/unitSize, u.box.Lo[1]/unitSize)
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	applyPermutation(units, perm)
}

// applyPermutation rearranges units so that units[i] becomes the
// former units[perm[i]], destroying perm (entries are marked -1 as
// their cycles are applied).
func applyPermutation(units []unit, perm []int) {
	for i := range perm {
		j := perm[i]
		if j < 0 || j == i {
			perm[i] = -1
			continue
		}
		tmp := units[i]
		k := i
		for j != i {
			units[k] = units[j]
			perm[k] = -1
			k = j
			j = perm[j]
		}
		units[k] = tmp
		perm[k] = -1
	}
}
