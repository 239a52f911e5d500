// Package partition implements SAMR grid-hierarchy partitioners in the
// three families the paper surveys (section 2.2): domain-based
// (space-filling-curve composite partitioning), patch-based (per-level
// distribution), and hybrid (a Nature+Fable-style partitioner with
// Hue/Core separation, bi-levels and blocking). All partitioners produce
// the same Assignment representation, which the execution simulator
// consumes.
package partition

import (
	"context"
	"errors"
	"fmt"

	"samr/internal/geom"
	"samr/internal/grid"
)

// Fragment is a box of cells on one level assigned to one processor.
type Fragment struct {
	Level int
	Box   geom.Box
	Owner int
}

// Assignment is a complete distribution of a hierarchy over processors.
type Assignment struct {
	NumProcs  int
	Fragments []Fragment
}

// Partitioner decomposes a hierarchy across nprocs processors.
//
// This is the stable execution contract of the whole stack: a
// partitioning request is bounded by its context. Implementations poll
// ctx at level/box-batch granularity (not per cell) and abort promptly
// once it is cancelled or its deadline expires. On cancellation they
// return a nil Assignment and ctx's error (wrapped, so errors.Is
// against context.Canceled / context.DeadlineExceeded holds) — never a
// partial result. A nil error implies the Assignment covers every cell
// of every level exactly once, for any hierarchy grid.Hierarchy.Validate
// accepts (two-dimensional, disjoint, nested). A hierarchy Validate
// accepts can still be unaffordable: the unit-chain partitioners
// (DomainSFC, NatureFable, and anything wrapping them) refuse one whose
// base level would chop into more than maxUnits atomic units with an
// error wrapping ErrTooManyUnits, before building anything for it.
type Partitioner interface {
	// Name identifies the partitioner in experiment output.
	Name() string
	// Partition distributes h across nprocs processors, honouring ctx.
	Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error)
}

// checkCtx is the shared cancellation poll of the partitioners: nil
// while the request is live, a wrapped context error once it is not.
// It is called at batch boundaries (per level, per region box, every
// batch of units), keeping the poll cost far off the per-cell paths.
func checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	return nil
}

// ctxBatch is the unit-loop stride between cancellation polls: loops
// over atomic units or fragments re-check their context every ctxBatch
// iterations.
const ctxBatch = 64

// ErrTooManyUnits is the refusal of a hierarchy whose base level chops
// into more than maxUnits atomic units. It depends on the request alone
// (hierarchy and unit size), so retrying cannot help.
var ErrTooManyUnits = errors.New("partition: too many atomic units")

// maxUnits is the atomic-unit budget of one unit-chain partition: a
// thousand times the largest input the repository builds (1024 units, a
// 32² base at unit 1). A unit carries its box and weights in the chains
// and preps and a fragment or more per level: an unbounded chop of a
// 65536² base at unit 2 (2^30 units) held about a gigabyte of heap one
// second in.
const maxUnits = 1 << 20

// checkUnits refuses a region that chopping into units of edge unitSize
// would turn into more than maxUnits units. It counts with the chop's
// own arithmetic (unitsOfWeighted): each box yields ceil(extent /
// unitSize) units per axis, the ceiling taken without forming extent +
// unitSize, which could wrap for a huge unit.
func checkUnits(region geom.BoxList, unitSize int) error {
	var n int64
	for _, b := range region {
		if !b.Empty() {
			n += int64((b.Size(0)-1)/unitSize+1) * int64((b.Size(1)-1)/unitSize+1)
		}
	}
	if n > maxUnits {
		return fmt.Errorf("%w: the base level chops into %d units of edge %d, past the budget of %d",
			ErrTooManyUnits, n, unitSize, maxUnits)
	}
	return nil
}

// Loads returns the computational load per processor: cell count
// weighted by the level's local-step factor (level l work is
// vol * RefRatio^l per coarse step).
func (a *Assignment) Loads(h *grid.Hierarchy) []int64 {
	loads := make([]int64, a.NumProcs)
	for _, f := range a.Fragments {
		loads[f.Owner] += f.Box.Volume() * h.StepFactor(f.Level)
	}
	return loads
}

// Imbalance returns the load-imbalance percentage: 100 * max/avg - 100,
// the de-facto standard metric the paper cites ("the load of the
// heaviest loaded processor divided by the average load"). Returns 0
// for an empty assignment.
func (a *Assignment) Imbalance(h *grid.Hierarchy) float64 {
	return ImbalanceOf(a.Loads(h))
}

// ImbalanceOf derives the load-imbalance percentage from an
// already-computed per-processor load vector, so callers that need
// both the loads and the metric (the simulator) build the vector once.
func ImbalanceOf(loads []int64) float64 {
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	avg := float64(sum) / float64(len(loads))
	return 100*float64(max)/avg - 100
}

// Validate checks that the assignment covers every level of h exactly:
// every fragment lies on a level h has and has an owner below NumProcs,
// and each level's fragments are disjoint, within the level's boxes,
// and their total volume matches the level's. sim.Migration counts
// moved points only on assignments that pass. h must pass
// grid.Hierarchy.Validate, as it has wherever an assignment is held to
// it: the containment sweep takes the level's boxes to be disjoint.
//
// One pass files the fragments under their levels; each level then
// costs one geom cover sweep, which proves its fragments disjoint and
// inside its boxes at once (BoxList.NestedIn at ratio 1), and a volume
// sum, which with those proves the cover complete. n fragments over a
// hierarchy of m boxes so validate in O((n+m) log(n+m)), whatever their
// shapes; a refusal for overlap or for a fragment outside, which names
// the first one out, costs one more sweep or a log factor more.
func (a *Assignment) Validate(h *grid.Hierarchy) error {
	if a.NumProcs < 1 {
		return fmt.Errorf("partition: no processors")
	}
	byLevel := make([]geom.BoxList, len(h.Levels))
	for _, f := range a.Fragments {
		if f.Level < 0 || f.Level >= len(h.Levels) {
			return fmt.Errorf("partition: fragment %v on level %d of a %d-level hierarchy", f.Box, f.Level, len(h.Levels))
		}
		if f.Owner < 0 || f.Owner >= a.NumProcs {
			return fmt.Errorf("partition: level %d fragment %v has bad owner %d", f.Level, f.Box, f.Owner)
		}
		byLevel[f.Level] = append(byLevel[f.Level], f.Box)
	}
	for l, lev := range h.Levels {
		frags := byLevel[l]
		nested := frags.NestedIn(lev.Boxes, 1)
		if !nested && !frags.Disjoint() {
			return fmt.Errorf("partition: level %d fragments overlap", l)
		}
		if got, want := frags.TotalVolume(), lev.NumPoints(); got != want {
			return fmt.Errorf("partition: level %d covers %d of %d points", l, got, want)
		}
		if !nested {
			f := frags[frags.FirstUnnested(lev.Boxes, 1)]
			return fmt.Errorf("partition: level %d fragment %v outside level boxes", l, f)
		}
	}
	return nil
}

// unit is an atomic partitioning unit: a base-level box plus the
// workload it carries, in 24 bytes against a geom.Box's 56 plus the
// weight. Validate bounds every level's index space to ±2^30, so the
// base-level corners fit int32 exactly (packed.go's argument), and box
// restores the planar box.
type unit struct {
	x0, y0, x1, y1 int32 // base-level index space
	weight         int64
}

func (u unit) box() geom.Box {
	return geom.NewBox2(int(u.x0), int(u.y0), int(u.x1), int(u.y1))
}

// hierIndex is a partition call's view of its hierarchy: one BoxIndex
// per level, each built over the level's own boxes the first time the
// level is queried (a warm NatureFable call queries none), and the
// call's context for batch-granular cancellation. Column weights, band
// weights, and fragment generation all scan "this unit's footprint
// against every box of level l"; the index turns each such scan from
// O(boxes) into a candidate lookup. A hierIndex belongs to one
// Partition invocation and is not shared across goroutines (the lazy
// indexes and the scratch buffers are not synchronized); the hierarchy
// must not change under it.
type hierIndex struct {
	ctx    context.Context
	h      *grid.Hierarchy
	levels []*geom.BoxIndex // by level, nil until first queried
	buf    []int
	cut    []ownedUnit // NatureFable's cuts, one at a time
}

func newHierIndex(ctx context.Context, h *grid.Hierarchy) *hierIndex {
	return &hierIndex{ctx: ctx, h: h}
}

// level returns level l's index, building it on first use.
func (hi *hierIndex) level(l int) *geom.BoxIndex {
	if hi.levels == nil {
		hi.levels = make([]*geom.BoxIndex, len(hi.h.Levels))
	}
	if hi.levels[l] == nil {
		hi.levels[l] = geom.NewBoxIndex(hi.h.Levels[l].Boxes)
	}
	return hi.levels[l]
}

// check polls the partition call's context.
func (hi *hierIndex) check() error { return checkCtx(hi.ctx) }

// unitsOf chops the given base-level region into atomic units of size
// unitSize and weights each by the full-depth workload of the column
// above it. Zero-weight units (possible only if region lies outside the
// hierarchy) are kept so coverage stays exact. Cancellation is polled
// once per unit row.
func (hi *hierIndex) unitsOf(region geom.BoxList, unitSize int) ([]unit, error) {
	return hi.unitsOfWeighted(region, unitSize, hi.columnWeight)
}

// unitsOfWeighted is unitsOf with a caller-chosen unit weight (the
// hybrid partitioner leaves its units' weights to its per-band
// artifacts). Units are chopped by the
// extent left in the region, which Validate's coordinate bound keeps
// far from overflow, so a unit edge near MaxInt is one unit, never a
// corner that wraps.
func (hi *hierIndex) unitsOfWeighted(region geom.BoxList, unitSize int, weight func(geom.Box) int64) ([]unit, error) {
	var out []unit
	for _, rb := range region {
		for y, dy := rb.Lo[1], 0; y < rb.Hi[1]; y += dy {
			if err := hi.check(); err != nil {
				return nil, err
			}
			dy = min(unitSize, rb.Hi[1]-y)
			for x, dx := rb.Lo[0], 0; x < rb.Hi[0]; x += dx {
				dx = min(unitSize, rb.Hi[0]-x)
				w := weight(geom.NewBox2(x, y, x+dx, y+dy))
				out = append(out, unit{x0: int32(x), y0: int32(y), x1: int32(x + dx), y1: int32(y + dy), weight: w})
			}
		}
	}
	return out, nil
}

// columnWeight returns the workload of the hierarchy column over the
// base-space box ub: sum over levels of overlap volume times the level's
// step factor.
func (hi *hierIndex) columnWeight(ub geom.Box) int64 {
	var w int64
	fine := ub
	for l := range hi.h.Levels {
		if l > 0 {
			fine = fine.Refine(hi.h.RefRatio)
		}
		w += hi.level(l).QueryVolume(fine) * hi.h.StepFactor(l)
	}
	return w
}

// bandFragments appends the fragments of levels [loLevel, hiLevel] lying
// over the base-space box ub, assigned to owner, preserving the level
// box order of the hierarchy.
func (hi *hierIndex) bandFragments(ub geom.Box, loLevel, hiLevel, owner int, out *[]Fragment) {
	fine := ub
	for l := 0; l <= hiLevel && l < len(hi.h.Levels); l++ {
		if l > 0 {
			fine = fine.Refine(hi.h.RefRatio)
		}
		if l < loLevel {
			continue
		}
		ix := hi.level(l)
		hi.buf = ix.AppendQuery(hi.buf[:0], fine)
		for _, bi := range hi.buf {
			if iv := ix.Box(bi).Intersect(fine); !iv.Empty() {
				*out = append(*out, Fragment{Level: l, Box: iv, Owner: owner})
			}
		}
	}
}

// columnFragments converts one owned base-space unit into per-level
// fragments: the unit's column intersected with every level's boxes.
func (hi *hierIndex) columnFragments(ub geom.Box, owner int, out *[]Fragment) {
	hi.bandFragments(ub, 0, len(hi.h.Levels)-1, owner, out)
}

// cutChain splits an (already ordered) chain whose unit i weighs w[i]
// into parts contiguous chunks of near-equal weight (chains-on-chains
// greedy) and returns the part index of each unit. The part index is
// non-decreasing along the chain.
func cutChain(w []int64, parts int) []int {
	owners := make([]int, len(w))
	if parts < 1 {
		parts = 1
	}
	var total int64
	for _, wi := range w {
		total += wi
	}
	var acc int64
	p := 0
	for i, wi := range w {
		// Advance to the next part when the running total passes the
		// proportional boundary, keeping the last part non-starved.
		for p < parts-1 && acc+wi/2 >= total*int64(p+1)/int64(parts) {
			p++
		}
		owners[i] = p
		acc += wi
	}
	return owners
}

// unitWeights returns the weight of each unit of a chain, in order.
func unitWeights(units []unit) []int64 {
	w := make([]int64, len(units))
	for i, u := range units {
		w[i] = u.weight
	}
	return w
}

// merged is a partitioner's Partition: the assignment its fragments
// method builds, coalesced per (level, owner) under the same ctx.
func merged(ctx context.Context, h *grid.Hierarchy, nprocs int,
	fragments func(context.Context, *grid.Hierarchy, int) (*Assignment, error)) (*Assignment, error) {
	a, err := fragments(ctx, h, nprocs)
	if err != nil {
		return nil, err
	}
	if a.Fragments, err = mergeFragments(ctx, a.Fragments); err != nil {
		return nil, err
	}
	return a, nil
}

// mergeFragments coalesces mergeable same-level same-owner fragments to
// reduce fragment-count pressure on the simulator. Coverage is
// unchanged. Levels and owners are small non-negative integers (the
// level count and NumProcs bound them), so the (level, owner) grouping
// is two counting passes over fragment indices, least significant key
// first, and one in-place permutation of the fragments; a pass keeps
// equal keys in the order they arrived, which SimplifyContext's result
// depends on. The indices take 8 bytes a fragment, where a by-owner
// copy of the list took 72. A group sweep then writes back into the
// caller's slice — each group's boxes are staged in a scratch list
// before its (never longer) merged form overwrites consumed positions.
// A group of one box is its own merged form and skips SimplifyContext,
// which polls ctx for every other group; once ctx is done the merge
// stops with its error, and frags is left permuted and partly
// overwritten.
func mergeFragments(ctx context.Context, frags []Fragment) ([]Fragment, error) {
	levels, owners := 0, 0
	for i := range frags {
		levels, owners = max(levels, frags[i].Level+1), max(owners, frags[i].Owner+1)
	}
	order := make([]int32, 2*len(frags))
	arrived, byOwner := order[:len(frags)], order[len(frags):]
	for i := range arrived {
		arrived[i] = int32(i)
	}
	countingPass(byOwner, arrived, frags, owners, func(f *Fragment) int { return f.Owner })
	countingPass(arrived, byOwner, frags, levels, func(f *Fragment) int { return f.Level })
	permute(frags, arrived)

	out := frags[:0]
	var scratch geom.BoxList
	for start := 0; start < len(frags); {
		level, owner := frags[start].Level, frags[start].Owner
		end := start + 1
		for end < len(frags) && frags[end].Level == level && frags[end].Owner == owner {
			end++
		}
		if end == start+1 {
			out = append(out, frags[start])
			start = end
			continue
		}
		scratch = scratch[:0]
		for _, f := range frags[start:end] {
			scratch = append(scratch, f.Box)
		}
		merged, err := scratch.SimplifyContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		merged.SortByLo()
		for _, b := range merged {
			out = append(out, Fragment{Level: level, Box: b, Owner: owner})
		}
		start = end
	}
	return out, nil
}

// countingPass writes the fragment indices src lists into dst in
// ascending key order, indices of equal key in the order src has them.
// Keys lie in [0, keys).
func countingPass(dst, src []int32, frags []Fragment, keys int, key func(*Fragment) int) {
	next := make([]int32, keys+1) // next[k]: where the next index of key k goes
	for _, i := range src {
		next[key(&frags[i])+1]++
	}
	for k := 1; k < keys; k++ {
		next[k] += next[k-1]
	}
	for _, i := range src {
		k := key(&frags[i])
		dst[next[k]] = i
		next[k]++
	}
}

// permute moves, in place, the element at index order[j] to position
// j, for every j. order must be a permutation; it is consumed, each
// entry set to -1 once its cycle is followed.
func permute[T any](s []T, order []int32) {
	for i := range order {
		if order[i] < 0 {
			continue
		}
		v := s[i]
		for j := i; ; {
			k := int(order[j])
			order[j] = -1
			if k == i {
				s[j] = v
				break
			}
			s[j] = s[k]
			j = k
		}
	}
}
