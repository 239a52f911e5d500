// Package core implements the paper's contribution: the continuous,
// absolute, partitioner-centric classification space for SAMR
// partitioning trade-offs and the ab-initio penalty models that map an
// (unpartitioned) grid-hierarchy state onto it.
//
// The space has three dimensions (Figure 3, right):
//
//	Dimension I   — load balance vs. communication      (Part I; recon-
//	                structed here from the grid-relative pressures)
//	Dimension II  — partitioning speed vs. quality      (section 4.3)
//	Dimension III — data migration                      (section 4.4)
//
// All penalties are pure functions of grid hierarchies: they never look
// at a partitioning, which is precisely the paper's point — a trivial
// monitoring of the application evaluates the current partitioning,
// whereas these models capture the inherent properties of the hierarchy.
package core

import (
	"samr/internal/geom"
	"samr/internal/grid"
)

// MigrationPenalty is beta_m, the paper's dimension-III model
// (section 4.4):
//
//	beta_m(H_{t-1}, H_t) = 1 - (1/|H_t|) * sum_l sum_i sum_j
//	                        | G^{l,i}_{t-1}  x  G^{l,j}_t |
//
// where x denotes grid intersection and |H_t| is the point count of the
// current hierarchy. The denominator is |H_t| (not |H_{t-1}|) per the
// paper's argument: growing grids move a large fraction of the small old
// grid; shrinking grids move only a small fraction of the large old one.
//
// The result is clamped to [0, 1]; it is 0 when the hierarchy did not
// change and approaches 1 when nothing overlaps (everything must move
// or be regenerated).
func MigrationPenalty(prev, cur *grid.Hierarchy) float64 {
	return MigrationPenaltyWith(prev, cur, DenomCurrent)
}

// MigrationPenaltyDenominator selects the normalization of the overlap
// sum, for the denominator ablation (Ablation A,
// experiments.AblationDenominator).
type MigrationPenaltyDenominator int

const (
	// DenomCurrent uses |H_t| — the paper's choice.
	DenomCurrent MigrationPenaltyDenominator = iota
	// DenomPrevious uses |H_{t-1}| — matches the relative-migration
	// metric's normalization.
	DenomPrevious
	// DenomMax uses max(|H_{t-1}|, |H_t|) — the symmetric alternative.
	DenomMax
)

// MigrationPenaltyWith computes beta_m with an explicit choice of
// denominator; MigrationPenalty is MigrationPenaltyWith(DenomCurrent).
func MigrationPenaltyWith(prev, cur *grid.Hierarchy, d MigrationPenaltyDenominator) float64 {
	var denom int64
	switch d {
	case DenomPrevious:
		denom = prev.NumPoints()
	case DenomMax:
		denom = prev.NumPoints()
		if c := cur.NumPoints(); c > denom {
			denom = c
		}
	default:
		denom = cur.NumPoints()
	}
	if denom == 0 {
		return 0
	}
	overlap := grid.TotalOverlap(prev, cur)
	return clamp01(1 - float64(overlap)/float64(denom))
}

// CommGranularity is the atomic-unit edge length (in base cells) the
// communication penalty assumes for its worst-case distribution — the
// paper's experimental granularity (minimum block dimension) of 2.
const CommGranularity = 2

// CommunicationPenalty is beta_c: the worst-case communication pressure
// of the hierarchy, derived ab initio from the unpartitioned grid. The
// worst case assumes an adversarial distribution that cuts every
// atomic-unit boundary. A unit of granularity g (in base cells) spans
// g*r^l cells on level l, so its one-cell ghost ring involves ~4/(g*r^l)
// of its cells per face direction and twice that counting both sides of
// each cut; weighting by the level's local-step count r^l and
// normalizing by the workload W = sum_l vol_l * r^l, the level terms
// telescope:
//
//	beta_c = clamp( (8/g) * |H| / W )
//
// i.e. worst-case relative communication is governed by the ratio of
// grid points to workload — high when shallow levels dominate (little
// subcycling amortization of the cut surfaces), low when deep refined
// bulk dominates. An earlier variant also added the actual
// patch-boundary surface; it consistently degraded agreement with the
// measured relative communication (see EXPERIMENTS.md), so the model
// deliberately ignores patch shape.
//
// As the paper observes of its beta_c, this is aggressive ("it 'jumps'
// at potentially communication-heavy grids"): real partitioners —
// especially hybrids — cut far fewer boundaries than the adversarial
// distribution, so measured relative communication sits at or below
// this value.
func CommunicationPenalty(h *grid.Hierarchy) float64 {
	w := h.Workload()
	if w == 0 {
		return 0
	}
	pts := float64(h.NumPoints())
	return clamp01(8 * pts / (float64(CommGranularity) * float64(w)))
}

// LoadPenalty is beta_l: the load-concentration pressure of the
// hierarchy — how difficult the hierarchy makes load balancing for a
// locality-preserving (domain-based) partitioner. It is one minus the
// normalized participation ratio of the per-column workload
// distribution over the base domain: 0 for perfectly uniform work
// (trivial to balance), approaching 1 when all work is concentrated
// over a vanishing fraction of the domain (the paper's "small base-grid,
// many processors, many levels" pathology of section 3.1).
func LoadPenalty(h *grid.Hierarchy) float64 {
	base := h.Levels[0].Boxes
	baseCells := base.TotalVolume()
	if baseCells == 0 {
		return 0
	}
	// Column weights at the base-cell granularity would be expensive;
	// sample at a unit granularity that keeps ~1024 columns.
	unit := 1
	for (baseCells / int64(unit*unit)) > 1024 {
		unit *= 2
	}
	// One BoxIndex per level amortizes the per-column level scans: the
	// classifier calls LoadPenalty on every snapshot, so this loop is on
	// the model's hot path.
	indexes := make([]*geom.BoxIndex, len(h.Levels))
	for l, lev := range h.Levels {
		indexes[l] = geom.NewBoxIndex(lev.Boxes)
	}
	var sum, sumSq float64
	var n int64
	for _, bb := range base {
		for y := bb.Lo[1]; y < bb.Hi[1]; y += unit {
			for x := bb.Lo[0]; x < bb.Hi[0]; x += unit {
				ub := bb.Intersect(geom.NewBox2(x, y, x+unit, y+unit))
				w := float64(columnWorkload(h, indexes, ub))
				sum += w
				sumSq += w * w
				n++
			}
		}
	}
	if sum == 0 || n == 0 {
		return 0
	}
	// Participation ratio: (sum w)^2 / (n * sum w^2) is 1 for uniform
	// weights and 1/n for a single loaded column.
	pr := sum * sum / (float64(n) * sumSq)
	return clamp01(1 - pr)
}

// columnWorkload is the workload of the hierarchy column over the
// base-space box ub: overlap with every level (via the per-level box
// indexes) weighted by its local-step factor.
func columnWorkload(h *grid.Hierarchy, indexes []*geom.BoxIndex, ub geom.Box) int64 {
	var w int64
	fine := ub
	for l := 0; l < len(h.Levels); l++ {
		if l > 0 {
			fine = fine.Refine(h.RefRatio)
		}
		w += indexes[l].QueryVolume(fine) * h.StepFactor(l)
	}
	return w
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
