// Package grid defines the SAMR grid hierarchy: a coarse base grid
// covering the whole domain, overlaid by successively finer levels of
// rectangular patches tracking solution features. The hierarchy is the
// "A" (application) state the paper's classification model consumes, and
// the object partitioners decompose.
package grid

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

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
func (h *Hierarchy) StepFactor(l int) int64 { return StepFactor(h.RefRatio, l) }

// StepFactor is Hierarchy.StepFactor for any hierarchy of refinement
// ratio refRatio: refRatio^l.
func StepFactor(refRatio, l int) int64 {
	f := int64(1)
	for i := 0; i < l; i++ {
		f *= int64(refRatio)
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
// domain, refinement ratio, level count, and every level's box list in
// order — to buf and returns the extended slice. Signature is sha256
// over these bytes, and LevelSignature over one level's segment.
func (h *Hierarchy) AppendEncoding(buf []byte) []byte {
	buf = appendHeader(buf, h.Domain, h.RefRatio, len(h.Levels))
	for _, l := range h.Levels {
		buf = l.Boxes.AppendEncoding(buf)
	}
	return buf
}

// appendHeader appends the encoding prefix AppendEncoding writes
// before the levels: the domain box, the refinement ratio and the
// level count.
func appendHeader(buf []byte, domain geom.Box, refRatio, levels int) []byte {
	buf = geom.BoxList{domain}.AppendEncoding(buf)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(int64(refRatio)))
	buf = append(buf, w[:]...)
	binary.LittleEndian.PutUint64(w[:], uint64(levels))
	return append(buf, w[:]...)
}

// encodings recycles the scratch every signature is encoded into: a
// deep hierarchy encodes to a few hundred kB, and the request path, the
// classifier, the simulator and the partitioners' level digests sign
// hierarchies all the time, so no call allocates an encoding.
var encodings = sync.Pool{New: func() any { b := make([]byte, 0, 1<<12); return &b }}

// hashEncoding returns sha256 over the bytes enc appends to an empty
// buffer, which it encodes into pooled scratch. The scratch goes back
// to the pool only once it is hashed.
func hashEncoding(enc func([]byte) []byte) geom.Signature {
	bp := encodings.Get().(*[]byte)
	*bp = enc((*bp)[:0])
	sig := geom.Signature(sha256.Sum256(*bp))
	encodings.Put(bp)
	return sig
}

// Signature returns a deterministic content hash of the hierarchy:
// sha256 over AppendEncoding's bytes. Equal signatures mean
// structurally identical hierarchies, which is what makes the hash
// usable as a content-addressed cache key — a partitioner's output is a
// pure function of (hierarchy structure, configuration, nprocs). It is
// computed on every call, O(hierarchy), and allocates nothing.
func (h *Hierarchy) Signature() geom.Signature { return hashEncoding(h.AppendEncoding) }

// LevelSignature returns the sub-digest of level l: sha256 over the
// level's canonical box-list encoding, the segment of AppendEncoding
// that level writes. Like Signature it is computed on every call.
func (h *Hierarchy) LevelSignature(l int) geom.Signature {
	return hashEncoding(h.Levels[l].Boxes.AppendEncoding)
}

// SignLevels returns the Signature of the hierarchy of domain and
// refRatio whose levels levels appendLevels appends in order, each as
// geom.BoxList.AppendEncoding writes it: a caller holding the levels in
// another form (geom.Corners) signs them without building the
// hierarchy, through the same pooled scratch.
func SignLevels(domain geom.Box, refRatio, levels int, appendLevels func([]byte) []byte) geom.Signature {
	return hashEncoding(func(buf []byte) []byte {
		return appendLevels(appendHeader(buf, domain, refRatio, levels))
	})
}

// TrackSignature is a no-op: a hierarchy carries no signing state. It
// stays as a shim for the benchmark, which calls it, until ROADMAP item
// 28(d)'s queue removes the call.
func (h *Hierarchy) TrackSignature() {}

// Clone returns a deep copy of the hierarchy, free to be mutated
// directly.
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
// Disjointness and nesting are decided by geom's cover sweep (a plane
// sweep over x with a range-add/max segment tree over the compressed y
// coordinates: BoxList.Disjoint, NestedIn and FirstUnnested), so a
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
// The geometric tests are geom's cover sweeps, not box subtraction or
// pairwise scans. A level is disjoint when its cover never exceeds 1
// (BoxList.Disjoint); a disjoint level 0 inside the domain covers it
// when the volumes sum to the domain's; and level l nests when its
// cover less that of level l-1's refined boxes, the parent already
// known to be disjoint, never exceeds 0 (NestedIn). That last sweep
// also proves level l disjoint, so a valid level l > 0 costs one sweep,
// and the disjointness sweep of its own runs only for level 0 and to
// word a refusal. On a nesting failure FirstUnnested's binary search
// over prefixes of the level names its first box out. A
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
	for l, lev := range h.Levels {
		// Nesting can break when either side of the boundary moved —
		// including a kept level whose new parent shrank.
		nesting := l > 0 && (marked(l) || marked(l-1))
		nested := nesting && lev.Boxes.NestedIn(h.Levels[l-1].Boxes, h.RefRatio)
		if marked(l) {
			// A level nested in its disjoint parent is disjoint itself.
			if !nested && !lev.Boxes.Disjoint() {
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
			i := lev.Boxes.FirstUnnested(h.Levels[l-1].Boxes, h.RefRatio)
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

// TotalOverlap returns the number of grid points the two hierarchies'
// patch sets share, summed over the levels both have:
//
//	overlap = sum_l sum_i sum_j |G_a^{l,i} x G_b^{l,j}|
//
// the numerator sum of the paper's data-migration penalty (section
// 4.4). It is one overlap scan keyed by level.
func TotalOverlap(a, b *Hierarchy) int64 {
	scan := geom.NewOverlapScan()
	defer scan.Release()
	for l := range min(len(a.Levels), len(b.Levels)) {
		for k, box := range a.Levels[l].Boxes {
			scan.AddA(l, box, k)
		}
		for k, box := range b.Levels[l].Boxes {
			scan.AddB(l, box, k)
		}
	}
	var t int64
	scan.Each(context.Background(), func(_, _, _ int, v int64) { t += v })
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
