package partition

import (
	"context"
	"fmt"
	"slices"

	"samr/internal/geom"
	"samr/internal/grid"
)

// PostMapped names the post-mapping technique the paper gives as a
// data-migration remedy (section 4: "optimizing data migration may be
// obtained by e.g. invoking some kind of post mapping technique"):
// after the inner partitioner produces its decomposition, the processor
// *labels* are permuted to maximize the number of grid points that keep
// their previous owner. The geometric decomposition is unchanged (load
// balance and communication are untouched); only the labels align with
// the previous assignment, cutting migration.
//
// The permutation depends on the previous assignment, which belongs to
// whoever walks the sequence of steps, not to the partitioner. So
// PostMapped partitions exactly as its inner partitioner does, and its
// caller relabels each answer with Remap against its own history.
// Name() keeps the postmap(...) spelling: it is the wire spec and the
// row label in experiment output.
type PostMapped struct {
	// Inner produces the decomposition being remapped.
	Inner Partitioner
}

// NewPostMapped wraps inner with post-mapping.
func NewPostMapped(inner Partitioner) *PostMapped { return &PostMapped{Inner: inner} }

// Name implements Partitioner.
func (pm *PostMapped) Name() string { return fmt.Sprintf("postmap(%s)", pm.Inner.Name()) }

// Partition implements Partitioner: the inner partitioner's answer,
// which the caller relabels with Remap.
func (pm *PostMapped) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return pm.Inner.Partition(ctx, h, nprocs)
}

// Remap relabels a, an assignment of h, so that as many grid points as
// possible keep the owner they had under prevA, the assignment of the
// previous step prevH. It returns a itself when there is nothing to
// align with (prevA nil, or for another processor count), and otherwise
// a new assignment with a's fragments in a's order under the permuted
// labels; a is never modified. The label match is exact (Hungarian) and
// keeps a label whenever relabeling gains nothing, so remapping an
// already remapped answer against the same previous step is the
// identity. ctx is polled throughout (see remapLabels); a cancelled
// call returns nil and ctx's error.
func Remap(ctx context.Context, prevH *grid.Hierarchy, prevA *Assignment, h *grid.Hierarchy, a *Assignment) (*Assignment, error) {
	if prevA == nil || prevA.NumProcs != a.NumProcs {
		return a, nil
	}
	perm, err := remapLabels(ctx, prevH, prevA, h, a)
	if err != nil {
		return nil, err
	}
	out := &Assignment{NumProcs: a.NumProcs, Fragments: make([]Fragment, len(a.Fragments))}
	for i, f := range a.Fragments {
		f.Owner = perm[f.Owner]
		out.Fragments[i] = f
	}
	return out, nil
}

// remapLabels returns a permutation newOwner -> relabeledOwner that
// maximizes the total point overlap with the previous assignment,
// solved exactly with the Hungarian algorithm. Identity is preferred
// among optima: the overlap of keeping a part's own label gets an
// infinitesimal bonus, so label churn never happens without a real
// gain. The n×n benefit matrix is the one allocation that grows with
// the square of the processor count. ctx is polled before each part's
// row of the overlap count and of the benefit, and in the match.
func remapLabels(ctx context.Context, prevH *grid.Hierarchy, prevA *Assignment, curH *grid.Hierarchy, curA *Assignment) ([]int, error) {
	n := curA.NumProcs
	// benefit[q*n+p] first accumulates the points of new part q lying in
	// previous owner p's region (per level, weighted equally per point).
	benefit := make([]int64, n*n)
	levels := min(len(curH.Levels), len(prevH.Levels))
	for l := 0; l < levels; l++ {
		prevOwned := prevA.LevelBoxes(l)
		for q, qb := range curA.LevelBoxes(l) {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
			row := benefit[q*n : (q+1)*n]
			for p, pb := range prevOwned {
				row[p] += geom.OverlapVolume(qb, pb)
			}
		}
	}
	// Identity preference: scale overlaps by 2 and add 1 on the diagonal
	// so any strict overlap win dominates the bonus, but exact ties
	// resolve to keeping labels.
	var maxB int64
	for q := 0; q < n; q++ {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		row := benefit[q*n : (q+1)*n]
		for p := range row {
			row[p] *= 2
		}
		row[q]++
		maxB = max(maxB, slices.Max(row))
	}
	return hungarian(ctx, benefit, maxB, n)
}

// hungarian solves the square assignment problem on the n×n row-major
// benefit matrix, returning for each row the column of a perfect
// matching of minimum cost maxB - benefit (maxB is the largest
// benefit, so every cost is non-negative). Standard potentials-based
// O(n^3) implementation, polling ctx once per step of each row's
// augmenting-path search (each step scans a row, O(n)).
func hungarian(ctx context.Context, benefit []int64, maxB int64, n int) ([]int, error) {
	const inf = int64(1) << 62
	u := make([]int64, n+1)
	v := make([]int64, n+1)
	p := make([]int, n+1) // p[col] = row matched to col (1-based)
	way := make([]int, n+1)
	minv := make([]int64, n+1)
	used := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			if err := checkCtx(ctx); err != nil {
				return nil, err
			}
			used[j0] = true
			i0 := p[j0]
			row := benefit[(i0-1)*n : i0*n]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := maxB - row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	out := make([]int, n)
	for j := 1; j <= n; j++ {
		if p[j] > 0 {
			out[p[j]-1] = j - 1
		}
	}
	return out, nil
}
