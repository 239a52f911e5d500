// Package grid defines the SAMR grid hierarchy: a coarse base grid
// covering the whole domain, overlaid by successively finer levels of
// rectangular patches tracking solution features. The hierarchy is the
// "A" (application) state the paper's classification model consumes, and
// the object partitioners decompose.
package grid

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"samr/internal/geom"
)

// Level is one refinement level of a hierarchy: a set of disjoint patch
// boxes in that level's index space.
type Level struct {
	// Boxes are the level's patches, pairwise disjoint.
	Boxes geom.BoxList
}

// NumPoints returns the number of grid points on the level.
func (l Level) NumPoints() int64 { return l.Boxes.TotalVolume() }

// Clone returns a deep copy.
func (l Level) Clone() Level { return Level{Boxes: l.Boxes.Clone()} }

// Hierarchy is a snapshot of an adaptive grid hierarchy: the base domain
// plus zero or more refined levels. Level 0 always covers the whole
// domain; level l+1 lives in an index space RefRatio times finer than
// level l and must nest inside level l's footprint.
type Hierarchy struct {
	// Domain is the base (level 0) index-space box.
	Domain geom.Box
	// RefRatio is the spatial (and temporal) refinement factor between
	// consecutive levels. The paper uses factor-2 refinement in space
	// and time.
	RefRatio int
	// Levels[0] is the base level; Levels[l] for l > 0 are refinements.
	Levels []Level

	// sig is the incremental signature cache of a tracked hierarchy
	// (see delta.go); nil for the common untracked case. Tracked
	// hierarchies must be mutated only through ApplyDelta/WithDelta.
	sig *sigCache
}

// NewHierarchy returns a hierarchy whose base level covers domain.
func NewHierarchy(domain geom.Box, refRatio int) *Hierarchy {
	return &Hierarchy{
		Domain:   domain,
		RefRatio: refRatio,
		Levels:   []Level{{Boxes: geom.BoxList{domain}}},
	}
}

// NumLevels returns the number of levels currently present.
func (h *Hierarchy) NumLevels() int { return len(h.Levels) }

// NumPoints returns |H|: the total number of grid points over all
// levels. This is the denominator of the paper's data-migration penalty.
func (h *Hierarchy) NumPoints() int64 {
	var n int64
	for _, l := range h.Levels {
		n += l.NumPoints()
	}
	return n
}

// StepFactor returns the number of local time steps level l performs per
// coarse (level 0) time step under subcycled factor-RefRatio time
// refinement: RefRatio^l.
func (h *Hierarchy) StepFactor(l int) int64 {
	f := int64(1)
	for i := 0; i < l; i++ {
		f *= int64(h.RefRatio)
	}
	return f
}

// Workload returns W = sum_l |level l| * RefRatio^l: the total number of
// cell updates per coarse time step. The paper normalizes communication
// by this quantity ("100-percent communication ... all points in the
// grid being involved in communications at all local time steps").
func (h *Hierarchy) Workload() int64 {
	var w int64
	for l, lev := range h.Levels {
		w += lev.NumPoints() * h.StepFactor(l)
	}
	return w
}

// LevelDomain returns the whole-domain box refined to level l's index
// space.
func (h *Hierarchy) LevelDomain(l int) geom.Box {
	b := h.Domain
	for i := 0; i < l; i++ {
		b = b.Refine(h.RefRatio)
	}
	return b
}

// Footprint returns the boxes of level l coarsened to level 0 index
// space. The footprint of levels >= 1 identifies the refined ("Core")
// portion of the domain.
func (h *Hierarchy) Footprint(l int) geom.BoxList {
	bl := h.Levels[l].Boxes.Clone()
	for i := 0; i < l; i++ {
		bl = bl.Coarsen(h.RefRatio)
	}
	return bl
}

// AppendEncoding appends the canonical encoding of the hierarchy —
// domain, refinement ratio, and every level's box list in order — to
// buf and returns the extended slice. The header and per-level
// segments are exactly what the incremental signature cache (delta.go)
// maintains piecewise, so a tracked signature is always the hash of
// these bytes.
func (h *Hierarchy) AppendEncoding(buf []byte) []byte {
	buf = h.appendHeader(buf)
	for _, l := range h.Levels {
		buf = l.Boxes.AppendEncoding(buf)
	}
	return buf
}

// Signature returns a deterministic content hash of the hierarchy's
// canonical encoding. Equal signatures mean structurally identical
// hierarchies, which is what makes the hash usable as a content-
// addressed cache key — a partitioner's output is a pure function of
// (hierarchy structure, configuration, nprocs). A tracked hierarchy
// (TrackSignature/ApplyDelta, see delta.go) answers from its
// incrementally maintained cache — the same value, without re-encoding
// or re-hashing anything.
func (h *Hierarchy) Signature() geom.Signature {
	sig, _ := h.SignatureWith(nil)
	return sig
}

// SignatureWith is Signature with caller-owned encoding scratch:
// callers hashing many hierarchies (the memoization layers key
// everything by content) pass a retained buffer's buf[:0] and get the
// grown buffer back for the next call, hashing without per-call
// allocation.
func (h *Hierarchy) SignatureWith(buf []byte) (geom.Signature, []byte) {
	if h.sig != nil {
		return h.sig.top, buf
	}
	buf = h.AppendEncoding(buf)
	return geom.Signature(sha256.Sum256(buf)), buf
}

// Clone returns a deep copy of the hierarchy. The incremental
// signature cache of a tracked hierarchy is deliberately not carried
// over: clones are routinely mutated directly (the cache would go
// stale), and a clone that needs tracking calls TrackSignature itself.
func (h *Hierarchy) Clone() *Hierarchy {
	out := &Hierarchy{Domain: h.Domain, RefRatio: h.RefRatio}
	out.Levels = make([]Level, len(h.Levels))
	for i, l := range h.Levels {
		out.Levels[i] = l.Clone()
	}
	return out
}

// Validate checks the structural invariants of a hierarchy: the domain
// and every box are two-dimensional, the finest level's index space
// fits maxCoord, every level's boxes are disjoint and inside the level
// domain, level 0 covers the domain, and every level l >= 1 nests
// inside level l-1's footprint. The penalties, the unit-chain
// partitioners and the simulator compute in the x-y plane, so this is
// where any other dimensionality is refused, however the hierarchy
// arrived (wire, .trc file, session snapshot); WithDelta holds the same
// rules for a session step through the same check.
//
// Disjointness and nesting are decided by plane sweeps over x with a
// range-add/max segment tree over the compressed y coordinates, so a
// hierarchy of n boxes validates in O(n log n) time and O(n) space, and
// a nesting refusal, which names the first box out, in O(n log² n),
// whatever the shapes of the boxes.
func (h *Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("grid: hierarchy has no levels")
	}
	return h.check("level", nil)
}

// check is Validate over the levels marked in changed (nil: all of
// them), naming a level as what in its errors. A level not marked is
// taken to satisfy its own invariants already — it did when the state a
// delta starts from was checked — and is only read as the parent or the
// child of a marked one.
//
// The geometric tests are plane sweeps (sweep.go), not box subtraction
// or pairwise scans. A level is disjoint when its cover never exceeds 1;
// a disjoint level 0 inside the domain covers it when the volumes sum to
// the domain's; and level l nests when its cover less that of level
// l-1's refined boxes, the parent already known to be disjoint, never
// exceeds 0. That last sweep also proves level l disjoint, so a valid
// level l > 0 costs one sweep, and the disjointness sweep of its own
// runs only for level 0 and to word a refusal. On a nesting failure a
// binary search over prefixes of the level names its first box out. A
// level of n boxes under a parent of p boxes so costs O((n+p) log(n+p)),
// and a refusal for nesting O(log n) times that, whatever the boxes'
// shapes. The sweeps only compare corners; the one sum, level 0's
// volume, is taken after every corner is known to lie within maxCoord
// and the level to be disjoint and inside the domain: dimensionality
// and extent are checked before any geometry runs, containment in the
// level domain before the level's volumes are used.
func (h *Hierarchy) check(what string, changed []bool) error {
	if h.RefRatio < 2 {
		return fmt.Errorf("grid: refinement ratio %d < 2", h.RefRatio)
	}
	if err := planar(h.Domain); err != nil {
		return fmt.Errorf("grid: domain: %w", err)
	}
	marked := func(l int) bool { return changed == nil || changed[l] }
	for l, lev := range h.Levels {
		if !marked(l) {
			continue
		}
		for _, b := range lev.Boxes {
			if err := planar(b); err != nil {
				return fmt.Errorf("grid: %s %d: %w", what, l, err)
			}
		}
	}
	if err := h.checkExtent(); err != nil {
		return err
	}
	s := sweeps.Get().(*sweep)
	defer putSweep(s)
	for l, lev := range h.Levels {
		// Nesting can break when either side of the boundary moved —
		// including a kept level whose new parent shrank.
		nesting := l > 0 && (marked(l) || marked(l-1))
		nested := nesting && s.nests(lev.Boxes, h.Levels[l-1].Boxes, h.RefRatio)
		if marked(l) {
			// A level nested in its disjoint parent is disjoint itself.
			if !nested && !s.disjoint(lev.Boxes) {
				return fmt.Errorf("grid: %s %d has overlapping boxes", what, l)
			}
			ld := h.LevelDomain(l)
			if i := slices.IndexFunc(lev.Boxes, func(b geom.Box) bool { return !ld.ContainsBox(b) }); i >= 0 {
				return fmt.Errorf("grid: %s %d box %v outside level domain %v", what, l, lev.Boxes[i], ld)
			}
			if l == 0 && lev.Boxes.TotalVolume() != h.Domain.Volume() {
				return fmt.Errorf("grid: %s 0 does not cover the domain %v", what, h.Domain)
			}
		}
		if nesting && !nested {
			i := s.firstUnnested(lev.Boxes, h.Levels[l-1].Boxes, h.RefRatio)
			return fmt.Errorf("grid: %s %d box %v not nested in level %d", what, l, lev.Boxes[i], l-1)
		}
	}
	return nil
}

// planar refuses a box that is not two-dimensional.
func planar(b geom.Box) error {
	if b.Dim != 2 {
		return fmt.Errorf("box %v has dim %d; hierarchies are 2-D", b, b.Dim)
	}
	return nil
}

// maxCoord bounds the corner coordinates of every level's index space
// in magnitude: an extent is then at most 2^31 and a volume at most
// 2^62, so no product or sum check forms can wrap an int64, and a
// level domain is what LevelDomain's repeated multiplication says it
// is, however large the refinement ratio.
const (
	maxCoordBits = 30
	maxCoord     = 1 << maxCoordBits
)

// checkExtent refuses a hierarchy whose finest level domain has a
// corner beyond maxCoord. It divides the bound instead of multiplying
// the corner, so nothing it computes can overflow.
func (h *Hierarchy) checkExtent() error {
	for axis := 0; axis < 2; axis++ {
		lo, hi := h.Domain.Lo[axis], h.Domain.Hi[axis]
		limit := maxCoord // on a level-0 corner, for level l's to fit
		for l := range h.Levels {
			if l > 0 {
				limit /= h.RefRatio
			}
			if min(lo, hi) < -limit || max(lo, hi) > limit {
				return fmt.Errorf("grid: level %d index space exceeds ±2^%d on axis %d (domain %v, refinement ratio %d)",
					l, maxCoordBits, axis, h.Domain, h.RefRatio)
			}
		}
	}
	return nil
}

// OverlapPoints returns, per level, the number of grid points shared by
// the two hierarchies' patch sets:
//
//	overlap[l] = sum_i sum_j |G_a^{l,i} x G_b^{l,j}|
//
// Levels present in only one hierarchy contribute zero. This is the
// numerator sum of the paper's data-migration penalty (section 4.4).
func OverlapPoints(a, b *Hierarchy) []int64 {
	n := len(a.Levels)
	if len(b.Levels) > n {
		n = len(b.Levels)
	}
	out := make([]int64, n)
	for l := 0; l < n; l++ {
		if l >= len(a.Levels) || l >= len(b.Levels) {
			continue
		}
		out[l] = geom.OverlapVolume(a.Levels[l].Boxes, b.Levels[l].Boxes)
	}
	return out
}

// TotalOverlap returns the sum of OverlapPoints over all levels.
func TotalOverlap(a, b *Hierarchy) int64 {
	var t int64
	for _, v := range OverlapPoints(a, b) {
		t += v
	}
	return t
}

func (h *Hierarchy) String() string {
	s := fmt.Sprintf("Hierarchy{domain=%v ref=%d levels=%d points=%d",
		h.Domain, h.RefRatio, len(h.Levels), h.NumPoints())
	for l, lev := range h.Levels {
		s += fmt.Sprintf(" L%d:%d boxes/%d pts", l, len(lev.Boxes), lev.NumPoints())
	}
	return s + "}"
}
