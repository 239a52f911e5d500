package partition

import (
	"context"
	"errors"
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
func (pm *PostMapped) Name() string { return "postmap(" + pm.Inner.Name() + ")" }

// Partition implements Partitioner: the inner partitioner's answer,
// which the caller relabels with Remap.
func (pm *PostMapped) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return pm.Inner.Partition(ctx, h, nprocs)
}

// ErrTooManyLabels is Remap's refusal of an assignment over more than
// maxLabels processors, the bound on its n×n int64 benefit matrix: 32
// MiB at 2048 labels, the most the suites run, and 32 GiB at 65536.
var ErrTooManyLabels = errors.New("partition: too many labels to post-map")

const maxLabels = 2048

// Remap relabels a so that as many grid points as possible keep the
// owner they had under prevA, the previous step's assignment: a new
// assignment with a's fragments in a's order under permuted labels, or
// a itself when there is nothing to align with (prevA nil, or for
// another processor count); a is never modified. No hierarchy is read:
// a level only one of the two has fragments on adds no overlap. The
// match is exact (Hungarian) and keeps a label whenever relabeling
// gains nothing, so remapping a remapped answer against the same
// previous step is the identity. Past maxLabels processors it answers
// ErrTooManyLabels before allocating anything. ctx is polled before
// the overlap scan, within it every 2^16 candidate fragment pairs
// (geom.OverlapScan.Each), before each part's row of the benefit, and
// in the match; a cancelled call returns nil and ctx's error.
func Remap(ctx context.Context, prevA, a *Assignment) (*Assignment, error) {
	n := a.NumProcs
	if n > maxLabels {
		return nil, fmt.Errorf("%w: %d processors, past the bound of %d", ErrTooManyLabels, n, maxLabels)
	}
	if prevA == nil || prevA.NumProcs != n {
		return a, nil
	}
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	benefit, err := overlapBenefit(ctx, prevA, a)
	if err != nil {
		return nil, err
	}
	// Identity preference: 1 more on the diagonal, so any strict overlap
	// win dominates the bonus, but exact ties resolve to keeping labels
	// and label churn needs a real gain.
	var maxB int64
	for q := 0; q < n; q++ {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		row := benefit[q*n : (q+1)*n]
		row[q]++
		maxB = max(maxB, slices.Max(row))
	}
	perm, err := hungarian(ctx, benefit, maxB, n)
	if err != nil {
		return nil, err
	}
	out := &Assignment{NumProcs: n, Fragments: make([]Fragment, len(a.Fragments))}
	for i, f := range a.Fragments {
		f.Owner = perm[f.Owner]
		out.Fragments[i] = f
	}
	return out, nil
}

// overlapBenefit returns the n×n row-major benefit matrix of relabeling
// a against prevA, both over n = a.NumProcs processors: entry q*n+p is
// twice the points of a's part q lying in prevA's part p, level by
// level, weighted equally per point. It is one overlap scan over both
// assignments' fragments, keyed by level and listed under their owners,
// and answers ctx's error if ctx is done before the scan ends.
func overlapBenefit(ctx context.Context, prevA, a *Assignment) ([]int64, error) {
	n := a.NumProcs
	benefit := make([]int64, n*n)
	scan := geom.NewOverlapScan()
	defer scan.Release()
	for _, f := range a.Fragments {
		scan.AddA(f.Level, f.Box, f.Owner)
	}
	for _, f := range prevA.Fragments {
		scan.AddB(f.Level, f.Box, f.Owner)
	}
	if err := scan.Each(ctx, func(_, q, p int, v int64) { benefit[q*n+p] += 2 * v }); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	return benefit, nil
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
	out := make([]int, n) // the matching is perfect: every p[j] > 0
	for j := 1; j <= n; j++ {
		out[p[j]-1] = j - 1
	}
	return out, nil
}
