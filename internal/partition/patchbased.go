package partition

import (
	"context"
	"sort"

	"samr/internal/geom"
	"samr/internal/grid"
)

// PatchBased distributes each refinement level independently, in the
// style of SAMRAI/LPARX/KeLP that the paper describes: each newly
// created grid is assigned as a whole to a processor (split first if its
// workload exceeds the ideal per-processor share), using
// longest-processing-time (LPT) bin packing per level.
//
// Its characteristic weaknesses — inter-level communication (parents and
// children usually land on different processors) — appear naturally in
// the execution simulator.
type PatchBased struct{}

// NewPatchBased returns the patch-based partitioner.
func NewPatchBased() *PatchBased { return &PatchBased{} }

// Name implements Partitioner.
func (p *PatchBased) Name() string { return "patch-lpt" }

// Partition implements Partitioner. Cancellation is polled per level
// and per batch of pieces during bin packing.
func (p *PatchBased) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(ctx, h, nprocs, p.fragments)
}

// fragments is Partition before coalescing: the packed pieces, level by
// level in packing order.
func (p *PatchBased) fragments(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	a := &Assignment{NumProcs: nprocs}
	loads := make([]int64, nprocs) // global loads: balance across levels too
	for l, lev := range h.Levels {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		w := h.StepFactor(l)
		var total int64
		for _, b := range lev.Boxes {
			total += b.Volume() * w
		}
		if total == 0 {
			continue
		}
		ideal := float64(total) / float64(nprocs)
		// Split oversized patches so no piece exceeds ideal.
		var pieces geom.BoxList
		queue := lev.Boxes.Clone()
		for len(queue) > 0 {
			b := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if float64(b.Volume()*w) > ideal && b.Size(b.LongestDim()) >= 2 {
				d := b.LongestDim()
				lo, hi := b.ChopDim(d, (b.Lo[d]+b.Hi[d])/2)
				queue = append(queue, lo, hi)
				continue
			}
			pieces = append(pieces, b)
		}
		// LPT: largest piece first onto the least-loaded processor.
		sort.Slice(pieces, func(i, j int) bool {
			if pieces[i].Volume() != pieces[j].Volume() {
				return pieces[i].Volume() > pieces[j].Volume()
			}
			return lessLo(pieces[i], pieces[j])
		})
		for i, b := range pieces {
			if i%ctxBatch == 0 {
				if err := checkCtx(ctx); err != nil {
					return nil, err
				}
			}
			min := 0
			for q := 1; q < nprocs; q++ {
				if loads[q] < loads[min] {
					min = q
				}
			}
			a.Fragments = append(a.Fragments, Fragment{Level: l, Box: b, Owner: min})
			loads[min] += b.Volume() * w
		}
	}
	return a, nil
}

func lessLo(a, b geom.Box) bool {
	for d := geom.MaxDim - 1; d >= 0; d-- {
		if a.Lo[d] != b.Lo[d] {
			return a.Lo[d] < b.Lo[d]
		}
	}
	return false
}
