// Content-addressed memoization under the unit-based partitioners.
//
// The atomic-unit decomposition of a hierarchy — chopping a base-space
// region into unit-sized boxes, weighting each by the workload of the
// level band above it, and ordering the result along a space-filling
// curve — depends only on (hierarchy content, curve, unit size, band),
// never on the processor count. So does the geometry a unit contributes
// to an assignment: which level boxes its column meets, and how. Only
// the owner label depends on nprocs. A chain store therefore keys those
// artifacts by content and shares them across DomainSFC, the hybrid
// family, and every processor count.
//
// An artifact lives as long as the store that holds it, and a call uses
// the store its context carries. A run that replays snapshots (sim's
// trace pipeline, experiments' nprocs sweep) opens a scope with
// WithChainScope: its snapshots, processor counts and workers share one
// store, which goes with the run. So a process that replays the same
// snapshots under many configurations, where the simulator's step cache
// answers every repeat, pins no chain past the run that built it. A
// call whose context carries no store (the daemon's partition and
// session paths, direct Partition callers) uses the process store: one
// hierarchy posted at several processor counts, or a session's
// consecutive steps, hit what the first call built.
//
// Indexes are not cached: a call builds its own hierIndex, whose level
// BoxIndexes are made over the hierarchy's own boxes the first time a
// level is queried. DomainSFC serves its unit chain from the store's
// chains, keyed by the hierarchy signature, and queries the call's
// indexes for every unit's column fragments. NatureFable keeps no cache
// keyed by the whole hierarchy: each call assembles its prep from a
// base keyed by the domain, the ratio and levels 0 and 1, and one band
// per further bi-level keyed by the base and that bi-level's levels.
// The base holds the hue and core chains, the hue's level-0 band and
// merged cover, and the core chain's bi-level 0-1; each band holds, per
// core unit, its weight and packed, owner-free fragments. A warm
// NatureFable call hashes the levels, sums the band weights, splits the
// processors, cuts the chains, labels whole units' stored fragments,
// and clips the stored fragments of the few units a fractional cut
// splits; it builds no index and makes no index query.
//
// A regrid usually replaces only the finest levels, so consecutive
// snapshots of a trace or session share the base, and snapshots whose
// replaced levels come back share bands too: a cold call pays for the
// bands that changed, and the calls along a trace hold one copy of each
// shared piece.
//
// Cached artifacts are immutable: readers cut and scan them but never
// reorder or reweight in place. SAMR traces are regrid-sparse
// (consecutive snapshots are usually content-identical), a sweep runs
// the same snapshots at many processor counts, and a service asked for
// one hierarchy at several processor counts hits the chain, base and
// bands on every count after the first, which is what makes this layer
// pay.
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
	"fmt"
	"sort"
	"sync/atomic"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/memo"
	"samr/internal/sfc"
)

// chainKey addresses one cached decomposition artifact: a content hash
// plus the curve and (clamped) atomic-unit size. For a store's chains
// the hash is the hierarchy signature; for its bases it is
// baseDigest's. The band and region of each artifact are implied by the
// cache it lives in.
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

// chainCacheCap bounds each cache of a store: on a paper-scale
// snapshot (32² base, five levels, unit 2) a NatureFable base holds
// about 7 KB of units and 0.5-7 KB of bi-level 0-1, each further
// bi-level 1-8.5 KB, and a domain chain 6 KB of units. A scope's store
// lives as long as its run and holds what the run's snapshots share; the
// process store is the one a long-running daemon keeps, and the bound is
// what stops it growing without end (in entries, not bytes).
const chainCacheCap = 512

// chainStore holds the three kinds of unit-chain artifact. The process
// store serves every call whose context carries no store; a scope
// (WithChainScope) carries a store of its own that dies with it.
type chainStore struct {
	// chains holds the DomainSFC artifact: the base domain chopped into
	// units, weighted by the full column, SFC-ordered.
	chains *memo.Cache[chainKey, []unit]
	// bases holds the part of a Nature+Fable prep that reads levels 0
	// and 1 only, keyed by baseDigest.
	bases *memo.Cache[chainKey, *nfBase]
	// bands holds the core chain's bi-levels from level 2 on.
	bands *memo.Cache[bandKey, coreBand]
}

func newChainStore() *chainStore {
	return &chainStore{
		chains: memo.New[chainKey, []unit](chainCacheCap),
		bases:  memo.New[chainKey, *nfBase](chainCacheCap),
		bands:  memo.New[bandKey, coreBand](chainCacheCap),
	}
}

// procChains is the process store.
var procChains = newChainStore()

// chainScopeKey is the context key under which a scope's store rides.
type chainScopeKey struct{}

// WithChainScope returns a context whose partition calls share a
// unit-chain store of their own, which goes with the last context that
// carries it. A context that already carries a store is returned as is,
// so runs nested in a scope share it.
func WithChainScope(ctx context.Context) context.Context {
	if storeOf(ctx) != procChains {
		return ctx
	}
	return context.WithValue(ctx, chainScopeKey{}, newChainStore())
}

// storeOf returns the store ctx carries, or the process store.
func storeOf(ctx context.Context) *chainStore {
	if s, ok := ctx.Value(chainScopeKey{}).(*chainStore); ok {
		return s
	}
	return procChains
}

// chainHits, chainMisses and chainShared sum the dispositions of every
// chain lookup, whatever store answered it.
var chainHits, chainMisses, chainShared atomic.Uint64

// countChain adds one lookup's disposition to the counters.
func countChain(disp string) {
	switch disp {
	case memo.Hit:
		chainHits.Add(1)
	case memo.Miss:
		chainMisses.Add(1)
	case memo.Shared:
		chainShared.Add(1)
	}
}

// CacheStats returns the hit, miss and shared counts of every unit-chain
// lookup (DomainSFC's chains, NatureFable's bases and bands), in the
// process store and in every scope, and the entries and capacity of the
// process store, for /v1/stats and samrbench -cachestats.
func CacheStats() (hits, misses, shared uint64, entries, capacity int) {
	s := procChains
	entries = s.chains.Len() + s.bases.Len() + s.bands.Len()
	capacity = s.chains.Capacity() + s.bases.Capacity() + s.bands.Capacity()
	return chainHits.Load(), chainMisses.Load(), chainShared.Load(), entries, capacity
}

// flushChainCaches drops every artifact of the process store (tests use
// it to compare memoized results against cold recomputation).
func flushChainCaches() {
	procChains.chains.Flush()
	procChains.bases.Flush()
	procChains.bands.Flush()
}

// domainChain returns the SFC-ordered full-column unit chain of h's
// base domain, cached by (signature, curve, unit size). hi carries the
// calling request's context: a cancelled build stores nothing.
func domainChain(hi *hierIndex, sig geom.Signature, curve sfc.Curve, unitSize int) ([]unit, error) {
	chain, disp, err := storeOf(hi.ctx).chains.GetOrCompute(hi.ctx, chainKey{sig: sig, curve: curve, unit: unitSize}, func() ([]unit, error) {
		units, err := hi.unitsOf(hi.h.Levels[0].Boxes, unitSize)
		if err != nil {
			return nil, err
		}
		orderUnitsByCurve(units, curve, unitSize)
		return units, nil
	})
	countChain(disp)
	return chain, err
}

// nfPrep is the nprocs-independent part of a Nature+Fable partition:
// the hue/core natural-region separation, the two unit chains (hue
// band, coarse core column), the hue's level-0 band and merged cover,
// and each core unit's weight and fragments per bi-level. What stays
// per call is what depends on nprocs: the processor split, the chain
// cuts, the owner labels, and clipping the units a fractional cut
// splits.
//
// A call assembles its prep from the cached base and bands, which every
// hierarchy with the same levels shares; of its own it holds only the
// list of its bands and the core units' column weights.
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
	// hueUnits is the hue region chopped into units, SFC-ordered: the
	// hue blocking chain. Their own weights are zero; a hue unit's
	// workload is its hueBand weight.
	hueUnits []unit
	// hueBand is the hue chain's level-0 band. A unit's weight is its
	// volume: the hue lies in level 0, which is disjoint.
	hueBand coreBand
	// hueCover is what mergeFragments makes of the hue when one
	// processor owns it: hueBand's fragments in chain order, simplified
	// and sorted by Lo.
	hueCover geom.BoxList
	// coreUnits is the core region chopped into units, SFC-ordered: the
	// coarse-partitioning chain. Their own weights are zero; a core
	// unit's workload is the prep's coreW.
	coreUnits []unit
	// band01 is the core chain's bi-level of levels 0-1.
	band01 coreBand
}

// coreBand is one band of a unit chain (a bi-level of the core chain,
// or level 0 of the hue chain): per unit, the band's workload over the
// unit and the band's fragments over it, packed with owner 0 (a call
// labels them). Each unit's fragments are a packed stream of their own,
// its delta base reset, so unit i's are data[start[i]:start[i+1]],
// exactly what bandFragments appends for the unit, in that order, and
// n counts them all.
type coreBand struct {
	weights []int64
	start   []int32
	n       int
	data    []byte
}

// unitFragments returns a reader of unit i's fragments.
func (b *coreBand) unitFragments(i int) fragReader {
	return fragReader{b: b.data[b.start[i]:b.start[i+1]]}
}

// nfPrepOf assembles the Nature+Fable pre-partitioning artifact for
// hi's hierarchy under (curve, unit size) from the cached base and
// bands, building only the pieces no earlier call left.
func nfPrepOf(hi *hierIndex, curve sfc.Curve, unitSize int) (*nfPrep, error) {
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
	p.bands = make([]coreBand, 1, (len(h.Levels)+1)/2)
	p.bands[0] = base.band01
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
}

// baseDigest hashes h's domain, ratio, and the signatures of levels 0
// and 1 (one signature when level 1 is absent, which the preimage's
// length tells apart): everything an nfBase reads of h, and the domain.
// The preimage is built in a stack buffer.
func baseDigest(h *grid.Hierarchy) geom.Signature {
	var pre [256]byte
	buf := geom.BoxList{h.Domain}.AppendEncoding(pre[:0])
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
	base, disp, err := storeOf(hi.ctx).bases.GetOrCompute(hi.ctx, key, func() (*nfBase, error) {
		h := hi.h
		var cores geom.BoxList
		if len(h.Levels) > 1 {
			if fp := h.Footprint(1); len(fp) > 0 {
				var err error
				if cores, err = makeCoreRegions(hi.ctx, fp); err != nil {
					return nil, err
				}
			}
		}
		// Each subtraction scans the whole remainder, so every one polls.
		hue := h.Levels[0].Boxes
		for _, c := range cores {
			if err := hi.check(); err != nil {
				return nil, err
			}
			hue = hue.SubtractBox(c)
		}
		hue, err := hue.SimplifyContext(hi.ctx)
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		hue.SortByLo()
		b := &nfBase{hue: hue, hueW: hue.TotalVolume()}
		if b.hueW > 0 {
			if b.hueUnits, err = hi.chainOf(hue, key); err != nil {
				return nil, err
			}
			if b.hueBand, err = hi.coreBandOf(b.hueUnits, 0, 0); err != nil {
				return nil, err
			}
			cover := make(geom.BoxList, 0, b.hueBand.n)
			for i := range b.hueUnits {
				for r := b.hueBand.unitFragments(i); r.more(); {
					cover = append(cover, r.next().Box)
				}
			}
			if b.hueCover, err = cover.SimplifyContext(hi.ctx); err != nil {
				return nil, fmt.Errorf("partition: %w", err)
			}
			b.hueCover.SortByLo()
		}
		if len(cores) > 0 {
			if b.coreUnits, err = hi.chainOf(cores, key); err != nil {
				return nil, err
			}
			if b.band01, err = hi.coreBandOf(b.coreUnits, 0, 1); err != nil {
				return nil, err
			}
		}
		return b, nil
	})
	countChain(disp)
	return base, err
}

// chainOf chops region into units of key's size, weightless (the bands
// weigh them), and orders them along key's curve.
func (hi *hierIndex) chainOf(region geom.BoxList, key chainKey) ([]unit, error) {
	units, err := hi.unitsOfWeighted(region, key.unit, func(geom.Box) int64 { return 0 })
	if err != nil {
		return nil, err
	}
	orderUnitsByCurve(units, key.curve, key.unit)
	return units, nil
}

// nfBandOf returns the cached bi-level of h's levels from lo (lo+1
// too, when h has it) over the core chain units of the base under
// base. The level digests are gathered in a stack buffer.
func nfBandOf(hi *hierIndex, base chainKey, units []unit, lo int) (coreBand, error) {
	top := min(lo+1, len(hi.h.Levels)-1)
	var pre [2 * sha256.Size]byte
	n := 0
	for l := lo; l <= top; l++ {
		sig := hi.h.LevelSignature(l)
		n += copy(pre[n:], sig[:])
	}
	band, disp, err := storeOf(hi.ctx).bands.GetOrCompute(hi.ctx, bandKey{base: base, lo: lo, levels: sha256.Sum256(pre[:n])}, func() (coreBand, error) {
		return hi.coreBandOf(units, lo, top)
	})
	countChain(disp)
	return band, err
}

// coreBandOf builds the band of levels [lo, hiLevel] over a unit chain.
// A unit's band weight is its fragments' volumes times their levels'
// step factors: the band's terms of the unit's columnWeight, since the
// fragments are exactly the non-empty overlaps it measures.
func (hi *hierIndex) coreBandOf(units []unit, lo, hiLevel int) (coreBand, error) {
	b := coreBand{weights: make([]int64, len(units)), start: make([]int32, len(units)+1)}
	var frags []Fragment
	var data []byte
	for i, u := range units {
		if i%ctxBatch == 0 {
			if err := hi.check(); err != nil {
				return coreBand{}, err
			}
		}
		frags = frags[:0]
		hi.bandFragments(u.box(), lo, hiLevel, 0, &frags)
		var base fragBase
		for _, f := range frags {
			b.weights[i] += f.Box.Volume() * hi.h.StepFactor(f.Level)
			var err error
			if data, err = base.appendFrag(data, f); err != nil {
				return coreBand{}, err
			}
		}
		b.n += len(frags)
		b.start[i+1] = int32(len(data))
	}
	b.data = exact(data)
	return b, nil
}

// orderUnitsByCurve sorts units stably along the curve (in place) by
// the index of each unit's lower corner coarsened by the unit size.
// The sort orders an index permutation keyed by a parallel key slice
// and applies it with permute, so no per-call pair slice or second unit
// copy is allocated.
func orderUnitsByCurve(units []unit, c sfc.Curve, unitSize int) {
	n := len(units)
	if n < 2 {
		return
	}
	keys := make([]int64, n)
	order := make([]int32, n)
	for i, u := range units {
		keys[i] = sfc.Index(c, int(u.x0)/unitSize, int(u.y0)/unitSize)
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	permute(units, order)
}
