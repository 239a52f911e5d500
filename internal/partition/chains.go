// Content-addressed memoization under the unit-based partitioners.
//
// The atomic-unit decomposition of a hierarchy — chopping a base-space
// region into unit-sized boxes, weighting each by the workload of the
// level band above it, and ordering the result along a space-filling
// curve — depends only on (hierarchy content, curve, unit size, band),
// never on the processor count. So does the geometry a unit contributes
// to an assignment: which level boxes its column meets, and how. Only
// the owner label depends on nprocs. The caches below therefore key
// those artifacts by content and share them across DomainSFC, the
// hybrid family, and every nprocs sweep.
//
// What each partitioner still does per call differs. DomainSFC cuts its
// cached chain and queries the level indexes for every unit's column
// fragments. NatureFable's prep holds everything nprocs-independent it
// uses: the hue and core chains, the hue's merged level-0 cover, and,
// per bi-level, every core unit's band weight and packed, owner-free
// band fragments. A warm NatureFable call splits the processors, cuts
// chains, labels whole units' stored fragments, and clips the stored
// fragments of the few units a fractional cut splits; it makes no index
// query.
//
// The prep is keyed by the whole hierarchy, but it is assembled from
// pieces keyed by exactly the levels they read. The base (hue, hue
// chain and cover, core chain, bi-level 0-1) reads the domain, the
// ratio and levels 0 and 1; each further bi-level reads the base's core
// chain and its own levels. A regrid usually replaces only the finest
// levels, so consecutive snapshots of a trace or session share the
// base, and snapshots whose replaced levels come back share bands too:
// building a prep pays for the bands that changed, and the preps of a
// trace hold one copy of each shared piece.
//
// Cached artifacts are immutable: readers cut and scan them but never
// reorder or reweight in place. SAMR traces are regrid-sparse
// (consecutive snapshots are usually content-identical), experiments
// replay the same snapshots under many configurations, and a service
// asked for one hierarchy at several processor counts hits the prep on
// every count after the first, which is what makes this layer pay.
//
// Everything here is bit-identical to building without caches: each
// piece reads only what its key digests, and equal digests imply equal
// encodings, so equal inputs. A prep's core weights are the column
// weights, since the bands partition the levels, and the core regions
// made from level 1 are those of every refined level (see nfBase);
// TestNatureFablePrepMatchesReference holds the assembled prep to the
// single-piece build. A cancelled leader stores nothing (memo.Cache
// contract), so an aborted Partition never poisons the cache for later
// calls.
package partition

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/memo"
	"samr/internal/sfc"
)

// chainKey addresses one cached decomposition artifact: a content hash
// plus the curve and (clamped) atomic-unit size. For domainChains and
// nfPreps the hash is the hierarchy signature; for nfBases it is
// baseDigest's. The band and region of each artifact are implied by
// the cache it lives in.
type chainKey struct {
	sig   geom.Signature
	curve sfc.Curve
	unit  int
}

// bandKey addresses one bi-level of a core chain past the first: the
// key of the base whose core chain it blocks (which fixes the units and
// the ratio, so the step factors), the band's first level, and a digest
// of the band's levels.
type bandKey struct {
	base   chainKey
	lo     int
	levels geom.Signature
}

// Cache bounds: on a paper-scale snapshot (32² base, five levels, unit
// 2) a NatureFable base holds about 7 KB of units and 0.5-7 KB of
// bi-level 0-1, each further bi-level 1-8.5 KB, a prep of its own under
// 1 KB of core weights, and a domain chain 6 KB of units. Experiment
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
	// nfPreps caches the Nature+Fable pre-partitioning artifact by
	// hierarchy signature: a base, the further bands, and the core
	// units' column weights.
	nfPreps = memo.New[chainKey, *nfPrep](chainCacheCap)
	// nfBases caches the part of a prep that reads levels 0 and 1 only,
	// keyed by baseDigest.
	nfBases = memo.New[chainKey, *nfBase](chainCacheCap)
	// nfBands caches the core chain's bi-levels from level 2 on.
	nfBands = memo.New[bandKey, coreBand](chainCacheCap)
	// levelIndexes caches one BoxIndex per hierarchy level, keyed by
	// content signature. The indexes capture cloned box lists, so a
	// cached entry never aliases caller-owned storage.
	levelIndexes = memo.New[geom.Signature, []*geom.BoxIndex](indexCacheCap)
)

// CacheStats returns the summed hit/miss/shared counters and occupancy
// of the partition-layer memo caches (unit chains, hybrid preps, bases
// and bands, level indexes), for /v1/stats and samrbench -cachestats.
func CacheStats() (hits, misses, shared uint64, entries, capacity int) {
	for _, s := range []interface {
		Stats() (uint64, uint64, uint64)
		Len() int
		Capacity() int
	}{domainChains, nfPreps, nfBases, nfBands, levelIndexes} {
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
	nfBases.Flush()
	nfBands.Flush()
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
//
// A prep shares its base and bands with every other prep built from the
// same levels; of its own it holds only the core units' column weights.
type nfPrep struct {
	*nfBase
	// coreW is each core unit's column workload: the sum of its band
	// weights, since the bands partition the levels.
	coreW []int64
	// bands holds the core chain's bi-levels (levels 0-1, 2-3, 4-…), in
	// the order every core group blocks them.
	bands []coreBand
}

// nfBase is the part of a prep that reads the ratio and levels 0 and 1
// only (its key holds the domain too), so every hierarchy with the same
// two coarsest levels shares it.
//
// The core regions are made from level 1's footprint alone. On a valid
// hierarchy every finer level nests in the one below, so its footprint
// lies inside level 1's: cluster.MakeDisjoint, which keeps each box
// less the boxes before it, would subtract every finer footprint box to
// nothing after level 1's, and the regions of the union of all refined
// footprints are these, box for box.
type nfBase struct {
	// hue is the unrefined base region (level 0 minus the core
	// regions), simplified and sorted.
	hue geom.BoxList
	// hueW is the hue workload (level 0 only, step factor 1).
	hueW int64
	// hueUnits is the hue region chopped into units, SFC-ordered. A
	// unit weighs its volume: the hue lies in level 0, which is
	// disjoint, so that is its level-0 workload.
	hueUnits []unit
	// hueCover is what mergeFragments makes of the hue when one
	// processor owns it: the hue units' level-0 fragments in chain
	// order, simplified and sorted by Lo.
	hueCover geom.BoxList
	// coreUnits is the core region chopped into units, SFC-ordered: the
	// coarse-partitioning chain. Their own weights are zero; a core
	// unit's workload is the prep's coreW.
	coreUnits []unit
	// band01 is the core chain's bi-level of levels 0-1.
	band01 coreBand
}

// coreBand is one bi-level of the core chain: per core unit, the
// band's workload over the unit and the band's fragments over it,
// packed with owner 0 (a call labels them). Unit i's fragments are
// frags[start[i]:start[i+1]], exactly what bandFragments appends for
// the unit, in that order.
type coreBand struct {
	weights []int64
	start   []int32
	frags   []packedFrag
}

// nfPrepOf returns the cached Nature+Fable pre-partitioning artifact
// for h under (curve, unit size). A miss assembles it from the cached
// base and bands, building only the pieces no earlier prep left.
func nfPrepOf(hi *hierIndex, sig geom.Signature, curve sfc.Curve, unitSize int) (*nfPrep, error) {
	prep, _, err := nfPreps.GetOrCompute(hi.ctx, chainKey{sig: sig, curve: curve, unit: unitSize}, func() (*nfPrep, error) {
		h := hi.h
		key := chainKey{sig: baseDigest(h), curve: curve, unit: unitSize}
		base, err := nfBaseOf(hi, key)
		if err != nil {
			return nil, err
		}
		p := &nfPrep{nfBase: base}
		if len(base.coreUnits) == 0 {
			return p, nil
		}
		p.bands = []coreBand{base.band01}
		for lo := 2; lo < len(h.Levels); lo += 2 {
			band, err := nfBandOf(hi, key, base.coreUnits, lo)
			if err != nil {
				return nil, err
			}
			p.bands = append(p.bands, band)
		}
		p.coreW = make([]int64, len(base.coreUnits))
		for _, b := range p.bands {
			for i, w := range b.weights {
				p.coreW[i] += w
			}
		}
		return p, nil
	})
	return prep, err
}

// baseDigest hashes h's domain, ratio, and the signatures of levels 0
// and 1 (one signature when level 1 is absent, which the preimage's
// length tells apart): everything an nfBase reads of h, and the domain.
func baseDigest(h *grid.Hierarchy) geom.Signature {
	buf := geom.BoxList{h.Domain}.AppendEncoding(nil)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(h.RefRatio)))
	for l := range min(2, len(h.Levels)) {
		sig := h.LevelSignature(l)
		buf = append(buf, sig[:]...)
	}
	return sha256.Sum256(buf)
}

// nfBaseOf returns the cached base of h under key (baseDigest(h),
// curve, unit size). It reads levels 0 and 1 of h only.
func nfBaseOf(hi *hierIndex, key chainKey) (*nfBase, error) {
	base, _, err := nfBases.GetOrCompute(hi.ctx, key, func() (*nfBase, error) {
		h := hi.h
		var cores geom.BoxList
		if len(h.Levels) > 1 {
			if fp := h.Footprint(1); len(fp) > 0 {
				cores = makeCoreRegions(fp)
			}
		}
		hue := h.Levels[0].Boxes.Subtract(cores).Simplify()
		hue.SortByLo()
		if err := hi.check(); err != nil {
			return nil, err
		}
		b := &nfBase{hue: hue, hueW: hue.TotalVolume()}
		if b.hueW > 0 {
			units, err := hi.unitsOfWeighted(hue, key.unit, geom.Box.Volume)
			if err != nil {
				return nil, err
			}
			orderUnitsByCurve(units, key.curve, key.unit)
			b.hueUnits = units
			var frags []Fragment
			for _, u := range units {
				hi.bandFragments(u.box(), 0, 0, 0, &frags)
			}
			cover := make(geom.BoxList, len(frags))
			for i, f := range frags {
				cover[i] = f.Box
			}
			b.hueCover = cover.Simplify()
			b.hueCover.SortByLo()
		}
		if len(cores) > 0 {
			units, err := hi.unitsOfWeighted(cores, key.unit, func(geom.Box) int64 { return 0 })
			if err != nil {
				return nil, err
			}
			orderUnitsByCurve(units, key.curve, key.unit)
			b.coreUnits = units
			if b.band01, err = hi.coreBandOf(units, 0, 1); err != nil {
				return nil, err
			}
		}
		return b, nil
	})
	return base, err
}

// nfBandOf returns the cached bi-level of h's levels from lo (lo+1
// too, when h has it) over the core chain units of the base under
// base.
func nfBandOf(hi *hierIndex, base chainKey, units []unit, lo int) (coreBand, error) {
	top := min(lo+1, len(hi.h.Levels)-1)
	var buf []byte
	for l := lo; l <= top; l++ {
		sig := hi.h.LevelSignature(l)
		buf = append(buf, sig[:]...)
	}
	band, _, err := nfBands.GetOrCompute(hi.ctx, bandKey{base: base, lo: lo, levels: sha256.Sum256(buf)}, func() (coreBand, error) {
		return hi.coreBandOf(units, lo, top)
	})
	return band, err
}

// coreBandOf builds the bi-level artifact of levels [lo, hiLevel] over
// the core chain. A unit's band weight is its fragments' volumes times
// their levels' step factors: the band's terms of the unit's
// columnWeight, since the fragments are exactly the non-empty overlaps
// it measures.
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
		hi.bandFragments(u.box(), lo, hiLevel, 0, &frags)
		for _, f := range frags {
			b.weights[i] += f.Box.Volume() * hi.h.StepFactor(f.Level)
			pf, err := packFrag(f)
			if err != nil {
				return coreBand{}, err
			}
			b.frags = append(b.frags, pf)
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
		keys[i] = sfc.Index(c, int(u.x0)/unitSize, int(u.y0)/unitSize)
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
