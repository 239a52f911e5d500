package grid

import (
	"fmt"

	"samr/internal/geom"
)

// Regrid steps. A regrid sequence replaces some levels per step and
// keeps the rest; WithDelta builds the next state from the previous one
// and a per-level step, checking only what a replacement can break and
// sharing the kept levels. A state's signature is not maintained
// across steps: Signature and LevelSignature compute it on demand, so
// there is no signing state to carry, copy or invalidate, and every
// hierarchy, however it was built or mutated, signs as its bytes say.

// LevelDelta describes one level of a regrid step: either the level
// survives unchanged from the previous state (Keep) or its patch set is
// replaced wholesale by Boxes. A step is a []LevelDelta whose length is
// the new level count, so levels are appended by extending the slice
// and dropped by shortening it.
type LevelDelta struct {
	// Keep marks the level as surviving unchanged; Boxes is ignored.
	Keep bool
	// Boxes is the replacement patch set when !Keep (may be empty).
	Boxes geom.BoxList
}

// Replace returns the delta replacing a level's patches with boxes.
func Replace(boxes geom.BoxList) LevelDelta { return LevelDelta{Boxes: boxes} }

// Keep returns the delta keeping a level unchanged.
func Keep() LevelDelta { return LevelDelta{Keep: true} }

// WithDelta returns a new hierarchy: the regrid state reached by
// applying step to h, leaving h untouched. Entry l of step is level l
// of the new state — kept (shared with h, which both states treat as
// immutable from then on) or replaced. The new state has exactly
// len(step) levels, so appending a level is a step one entry longer
// and dropping one is a step one entry shorter.
//
// The delta is validated by Validate's own check, restricted to what a
// replacement can break: a replaced level's dimensionality, extent,
// disjointness, domain containment and (level 0) cover, and nesting
// across every boundary with a replaced level on either side. That
// costs, for each replaced level, a plane sweep over it and one over it
// and its refined parent; for a kept level under a replaced parent the
// second of those; nothing for the other levels. An error leaves h as
// it was — the caller can retry or discard.
func (h *Hierarchy) WithDelta(step []LevelDelta) (*Hierarchy, error) {
	if len(step) == 0 {
		return nil, fmt.Errorf("grid: delta has no levels (level 0 is mandatory)")
	}
	old := len(h.Levels)
	levels := make([]Level, len(step))
	changed := make([]bool, len(step))
	for l, d := range step {
		if d.Keep {
			if l >= old {
				return nil, fmt.Errorf("grid: delta keeps level %d, but the previous state has %d levels", l, old)
			}
			levels[l] = h.Levels[l]
			continue
		}
		levels[l] = Level{Boxes: d.Boxes}
		changed[l] = true
	}
	out := &Hierarchy{Domain: h.Domain, RefRatio: h.RefRatio, Levels: levels}
	if err := out.check("delta level", changed); err != nil {
		return nil, err
	}
	return out, nil
}
