package partition

import (
	"context"
	"fmt"

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
	return fmt.Sprintf("domain-%s-u%d", d.Curve, d.UnitSize)
}

// Partition implements Partitioner. The SFC-ordered unit chain — the
// nprocs-independent bulk of the work — is served from the
// content-addressed chain cache; only the chain cut and fragment
// generation run per call.
func (d *DomainSFC) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(d.fragments(ctx, h, nprocs))
}

// fragments is Partition before coalescing: one fragment per unit per
// level box it meets, in chain order.
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
	sig := h.Signature()
	hi, err := sharedHierIndex(ctx, h, sig)
	if err != nil {
		return nil, err
	}
	chain, err := domainChain(hi, sig, d.Curve, us)
	if err != nil {
		return nil, err
	}
	owners := cutChain(unitWeights(chain), nprocs)
	a := &Assignment{NumProcs: nprocs}
	for i, u := range chain {
		if i%ctxBatch == 0 {
			if err := hi.check(); err != nil {
				return nil, err
			}
		}
		hi.columnFragments(u.box(), owners[i], &a.Fragments)
	}
	return a, nil
}
