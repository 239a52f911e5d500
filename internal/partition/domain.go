package partition

import (
	"context"
	"strconv"

	"samr/internal/grid"
	"samr/internal/sfc"
)

// DomainSFC is a strictly domain-based composite-grid partitioner: the
// base domain is chopped into atomic units, each unit carries its whole
// column of overlaid refinements (all levels cut identically), the units
// are ordered along a space-filling curve, and the resulting chain is
// cut into near-equal-workload processor portions.
//
// This is the classic domain-based scheme of Parashar & Browne (and of
// the first author's earlier work) the paper describes: it eliminates
// inter-level communication by construction, at the price of potentially
// intractable load imbalance for deep, localized hierarchies.
type DomainSFC struct {
	// Curve selects the ordering curve (default Hilbert).
	Curve sfc.Curve
	// UnitSize is the atomic-unit edge length in base cells (the
	// "granularity"; the paper's setups use minimum block dimension 2).
	UnitSize int
}

// NewDomainSFC returns a Hilbert-ordered domain-based partitioner with
// the paper's granularity.
func NewDomainSFC() *DomainSFC { return &DomainSFC{Curve: sfc.Hilbert, UnitSize: 2} }

// Name implements Partitioner.
func (d *DomainSFC) Name() string {
	return "domain-" + d.Curve.String() + "-u" + strconv.Itoa(d.UnitSize)
}

// Partition implements Partitioner. The nprocs-independent bulk of the
// work, the SFC-ordered chain of all of level 0 and per bi-level each
// unit's weight and fragments, comes from a prep assembled from the
// content-addressed base and band caches that NatureFable's preps use
// too (under keys of their own). What runs per call is summing each
// unit's band weights into its column weight, the chain cut, and
// labelling the stored fragments.
func (d *DomainSFC) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(ctx, h, nprocs, d.fragments)
}

// fragments is Partition before coalescing: per bi-level, one fragment
// per unit per level box it meets, in chain order. mergeFragments groups
// by (level, owner) stably, and within a group the order is the chain's
// and then the level boxes' whether the list runs band by band or unit
// by unit, so both orders merge to the same answer.
func (d *DomainSFC) fragments(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	us := d.UnitSize
	if us < 1 {
		us = 1
	}
	if err := checkUnits(h.Levels[0].Boxes, us); err != nil {
		return nil, err
	}
	hi := newHierIndex(ctx, h)
	prep, err := nfPrepOf(hi, d.Curve, us, true)
	if err != nil {
		return nil, err
	}
	owners := cutChain(prep.coreW, nprocs)
	// Every stored fragment is emitted once, so the list's length is
	// known; an empty level 0 keeps Fragments nil.
	a := &Assignment{NumProcs: nprocs}
	n := 0
	for _, b := range prep.bands {
		n += b.n
	}
	if n > 0 {
		a.Fragments = make([]Fragment, 0, n)
	}
	for _, band := range prep.bands {
		for i, owner := range owners {
			if i%ctxBatch == 0 {
				if err := hi.check(); err != nil {
					return nil, err
				}
			}
			for r := band.unitFragments(i); r.more(); {
				f := r.next()
				f.Owner = owner
				a.Fragments = append(a.Fragments, f)
			}
		}
	}
	return a, nil
}
