// Package amr implements the Berger–Colella structured AMR algorithm:
// a subcycled multi-level advance over a dynamic patch hierarchy with
// error-driven regridding. The driver runs one of the solver kernels and
// emits the partition-independent hierarchy snapshots that form an
// application trace, reproducing the trace-generation side of the
// paper's experimental process.
//
// Simplifications relative to a production AMR code: prolongation is
// bilinear interpolation (field.ProlongLinear), there is no refluxing
// (flux correction), and coarse boundary data is not interpolated in
// time. None of these affect the shape of the hierarchy dynamics the
// partitioning model consumes.
//
// # Transfer plans
//
// A level's transfer geometry changes only when a regrid replaces the
// level, so the driver plans it once, when it builds the level, and
// replays the plan at every level step until then (levelState.fills,
// exchanges, restricts). The fill plan lists the halo prolongation
// calls: per patch, per halo frame strip, the parent patches a query of
// the whole strip's coarsening returns, in query order, each filling
// the pieces of the strip that no sibling interior covers (the exchange
// overwrites those anyway). Every cell keeps the writers it had when
// each strip was prolonged whole, in the same order, so the fields do
// not change by a bit. The exchange plan lists each patch's sibling
// copies and the restriction plan, kept on the fine level, each coarse
// patch's fine patches.
//
// Between a level's substeps under one parent step nothing writes the
// parent level (its fill and step come before the substeps, its
// restriction after them), so prolongation would write every planned
// cell with the value it wrote on the first substep. Nothing else
// writes an in-domain planned cell: the exchange writes only
// sibling-covered cells, steps and restriction only interiors, and a
// regrid of the level's children replaces deeper levels only. The
// physical fill writes only cells outside the domain, from in-domain
// sources, and which cells it writes depends on the level's boxes
// alone: a cell it writes it rewrites on every substep, and one it
// leaves keeps its first-substep value. So a fill prolongs on the first
// substep under a parent step only.
//
// # Parallel execution
//
// Every per-patch phase of the advance — kernel steps, halo fills
// (prolongation, sibling exchange and the physical boundary, in that
// order, in one unit per patch), restriction, tagging, and building a
// level (allocating a patch, filling it with initial or regridded data
// and planning its transfers, in one unit per patch, plus one unit per
// parent patch for the restriction plan) — fans out over internal/pool
// with one patch per work unit. A phase writes only the patch (or plan
// entry) assigned to the unit (its interior for steps and restriction,
// its halo for a fill, a private tag buffer for tagging) and reads
// patches no phase-mate writes (a fill reads parent patches, sibling
// interiors and its own patch), so phases are race-free and the
// hierarchy evolution is bit-identical to a sequential run at any
// worker count (Config.Workers).
//
// The phases are short (tens to hundreds of µs at the paper's
// configuration) and follow each other after a few µs of serial code,
// so the pool's helpers stay awake from one to the next instead of
// being woken for each (see pool's linger). What runs on one core is
// the serial part of a regrid — clustering the tags
// (cluster.ClusterPoints), restoring disjointness (cluster.MakeDisjoint),
// clipping to the parent and compacting (geom.BoxList.Compact) — and
// the single-patch base level. Advance takes a context.Context per the
// repository's cancellation contract: a cancelled advance stops
// dispatching patch units, drains in-flight work, and returns the
// context's error; the driver's solution state is then indeterminate
// and only Close may follow. A regrid drops the replaced level's
// patches and the garbage collector reclaims them: nothing holds a
// retired patch's storage for reuse, so the live heap is the current
// hierarchy plus the level being built.
package amr

import (
	"context"
	"fmt"
	"math"
	"slices"

	"samr/internal/cluster"
	"samr/internal/field"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/pool"
	"samr/internal/solver"
	"samr/internal/trace"
)

// Config controls a driver run. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// BaseSize is the base grid extent (BaseSize x BaseSize cells).
	BaseSize int
	// MaxLevels is the total level budget including the base (the
	// paper runs 5 levels).
	MaxLevels int
	// RefRatio is the space and time refinement factor (paper: 2).
	RefRatio int
	// RegridEvery is the number of level steps between regrids of that
	// level's children (paper: 4).
	RegridEvery int
	// CFL is the time-step safety factor.
	CFL float64
	// TagBuffer grows each clustered patch by this many cells so the
	// tracked feature stays refined until the next regrid.
	TagBuffer int
	// Cluster configures Berger–Rigoutsos clustering.
	Cluster cluster.Options
	// Workers bounds the per-patch fan-out of every driver phase;
	// 0 means pool.Workers(). Results are identical at any value.
	Workers int
}

// DefaultConfig mirrors the paper's experimental setup: 5 levels of
// factor-2 refinement, regridding every 4 steps on each level, minimum
// block dimension 2.
func DefaultConfig() Config {
	return Config{
		BaseSize:    32,
		MaxLevels:   5,
		RefRatio:    2,
		RegridEvery: 4,
		CFL:         0.4,
		TagBuffer:   1,
		Cluster:     cluster.DefaultOptions(),
	}
}

// levelState is the driver's mutable view of one level.
type levelState struct {
	boxes   geom.BoxList
	patches []*field.Patch
	steps   int
	time    float64

	// Transfer plans, built by newLevel with the level and valid until
	// a regrid replaces it (see the package doc). restricts is indexed
	// by the parent level's patches: a change to the parent always
	// rebuilds or drops this level, so the plan cannot go stale.
	fills     [][]transfer // per patch: halo prolongation from parent patches, in order
	exchanges [][]transfer // per patch: sibling copies into the halo
	restricts [][]int      // per parent patch: this level's patches above it, ascending

	// Geometry indexes, built lazily on first use from sequential
	// driver code before any parallel fan-out touches them.
	interiorIx *geom.BoxIndex // over patch interiors (exchange, nesting, regrid copies)
	grownIx    *geom.BoxIndex // over grown boxes (prolongation sources)
}

// transfer fills region of a patch from patch src: by
// field.ProlongLinear from a parent patch in a fill plan, by a copy of
// a sibling's interior in an exchange plan.
type transfer struct {
	src    int
	region geom.Box
}

// interiorIndex returns the BoxIndex over the level's patch interiors.
func (ls *levelState) interiorIndex() *geom.BoxIndex {
	if ls.interiorIx == nil {
		ls.interiorIx = geom.NewBoxIndex(ls.boxes)
	}
	return ls.interiorIx
}

// grownIndex returns the BoxIndex over the level's grown patch boxes.
func (ls *levelState) grownIndex() *geom.BoxIndex {
	if ls.grownIx == nil {
		ls.grownIx = geom.NewBoxIndex(grownBoxes(ls.patches))
	}
	return ls.grownIx
}

// Driver advances a kernel on an adaptive hierarchy.
type Driver struct {
	cfg    Config
	kernel solver.Kernel
	levels []*levelState
	dt0    float64
	step   int // completed coarse steps
}

// New builds a driver, initializes the solution on the base level, and
// performs the initial cascade of regrids so the starting hierarchy
// already resolves the initial condition.
func New(k solver.Kernel, cfg Config) (*Driver, error) {
	if cfg.BaseSize < 4 {
		return nil, fmt.Errorf("amr: base size %d too small", cfg.BaseSize)
	}
	if cfg.MaxLevels < 1 || cfg.RefRatio < 2 || cfg.RegridEvery < 1 {
		return nil, fmt.Errorf("amr: invalid config %+v", cfg)
	}
	// Tags are int32 cell indices (clusterLevel).
	for n, l := cfg.BaseSize, 1; l < cfg.MaxLevels; l++ {
		if n > math.MaxInt32/cfg.RefRatio {
			return nil, fmt.Errorf("amr: level %d of %+v is wider than 2^31 cells", l, cfg)
		}
		n *= cfg.RefRatio
	}
	d := &Driver{cfg: cfg, kernel: k}
	d.dt0 = cfg.CFL * d.dx(0) / k.MaxSpeed()
	baseBoxes := geom.BoxList{d.levelDomain(0)}
	base, err := d.newLevel(context.Background(), 0, baseBoxes, d.initialData(0))
	if err != nil {
		return nil, err
	}
	d.levels = []*levelState{base}
	// Initial refinement cascade: tag each new finest level until the
	// budget is reached or nothing is tagged. Initial data comes from
	// kernel.Init (exact at every resolution).
	for l := 0; l+1 < cfg.MaxLevels; l++ {
		boxes, err := d.clusterLevel(context.Background(), l)
		if err != nil {
			return nil, err
		}
		if len(boxes) == 0 {
			break
		}
		ls, err := d.newLevel(context.Background(), l+1, boxes, d.initialData(l+1))
		if err != nil {
			return nil, err
		}
		d.levels = append(d.levels, ls)
	}
	return d, nil
}

// Close drops the driver's levels; the driver must not be used
// afterwards. The patches are ordinary garbage, so Close frees nothing
// the collector would not: it stays as a shim for the benchmark, which
// calls it, until ROADMAP item 28(d)'s queue removes the call.
func (d *Driver) Close() { d.levels = nil }

// workers returns the per-phase fan-out width.
func (d *Driver) workers() int {
	if d.cfg.Workers > 0 {
		return d.cfg.Workers
	}
	return pool.Workers()
}

// initialData returns the fill that sets a level-l patch to the
// kernel's initial condition.
func (d *Driver) initialData(level int) func(p *field.Patch) {
	g := d.geometry(level)
	return func(p *field.Patch) { d.kernel.Init(p, g) }
}

// dx returns the cell spacing on level l (physical domain is the unit
// square).
func (d *Driver) dx(l int) float64 {
	n := d.cfg.BaseSize
	for i := 0; i < l; i++ {
		n *= d.cfg.RefRatio
	}
	return 1.0 / float64(n)
}

func (d *Driver) geometry(l int) solver.Geometry { return solver.Geometry{Dx: d.dx(l)} }

// levelDomain returns the whole-domain box in level l index space.
func (d *Driver) levelDomain(l int) geom.Box {
	n := d.cfg.BaseSize
	for i := 0; i < l; i++ {
		n *= d.cfg.RefRatio
	}
	return geom.NewBox2(0, 0, n, n)
}

// Advance advances the whole hierarchy by one coarse time step,
// fanning per-patch work over the worker pool. A cancelled ctx aborts
// between patch units and returns the context's error; the solution
// state is then indeterminate and the driver must not be advanced
// again.
func (d *Driver) Advance(ctx context.Context) error {
	if err := d.advance(ctx, 0, true); err != nil {
		return fmt.Errorf("amr: %w", err)
	}
	d.step++
	return nil
}

// Time returns the current physical time (base-level clock).
func (d *Driver) Time() float64 { return d.levels[0].time }

// advance performs one time step on level l, recursing into finer
// levels with RefRatio substeps each, then restricting and possibly
// regridding (Berger–Colella order). first marks the first substep
// under the current parent step, the only one whose fill prolongs
// (see the package doc).
func (d *Driver) advance(ctx context.Context, l int, first bool) error {
	ls := d.levels[l]
	dt := d.dt0
	for i := 0; i < l; i++ {
		dt /= float64(d.cfg.RefRatio)
	}
	if err := d.fillGhosts(ctx, l, first); err != nil {
		return err
	}
	g := d.geometry(l)
	t0 := ls.time
	err := pool.MapCtx(ctx, d.workers(), len(ls.patches), func(i int) error {
		d.kernel.Step(ls.patches[i], t0, dt, g)
		return nil
	})
	if err != nil {
		return err
	}
	ls.time += dt
	if l+1 < len(d.levels) {
		for s := 0; s < d.cfg.RefRatio; s++ {
			if err := d.advance(ctx, l+1, s == 0); err != nil {
				return err
			}
		}
		if err := d.restrict(ctx, l); err != nil {
			return err
		}
	}
	ls.steps++
	if ls.steps%d.cfg.RegridEvery == 0 && l+1 < d.cfg.MaxLevels {
		if err := d.regrid(ctx, l); err != nil {
			return err
		}
	}
	return nil
}

// grownBoxes returns the grown (interior + halo) boxes of the patches,
// the geometry the prolongation source lookups index.
func grownBoxes(patches []*field.Patch) geom.BoxList {
	out := make(geom.BoxList, len(patches))
	for i, p := range patches {
		out[i] = p.GrownBox()
	}
	return out
}

// newLevel builds level l over boxes against the current level l-1:
// each work unit allocates one patch, fills it (fill reads only other
// levels) and plans its transfers (see the package doc); the units past
// the patches plan the restriction onto one parent patch each. On an
// error the partly built level is dropped.
func (d *Driver) newLevel(ctx context.Context, l int, boxes geom.BoxList, fill func(p *field.Patch)) (*levelState, error) {
	n := len(boxes)
	ls := &levelState{boxes: boxes, patches: make([]*field.Patch, n), exchanges: make([][]transfer, n)}
	six := ls.interiorIndex()
	var parent *levelState
	var pix, foot *geom.BoxIndex
	units := n
	if l > 0 {
		parent = d.levels[l-1]
		pix = parent.grownIndex()
		ls.fills = make([][]transfer, n)
		ls.restricts = make([][]int, len(parent.patches))
		foot = geom.NewBoxIndex(boxes.Coarsen(d.cfg.RefRatio))
		units += len(parent.patches)
	}
	err := pool.MapCtx(ctx, d.workers(), units, func(i int) error {
		if i >= n {
			// The fine patches whose coarsened interiors meet the
			// parent patch, ascending.
			ls.restricts[i-n] = foot.AppendQuery(nil, parent.boxes[i-n])
			return nil
		}
		p := field.NewPatch(boxes[i], d.kernel.Ghost(), d.kernel.NComp())
		ls.patches[i] = p
		fill(p)
		halo := p.GrownBox()
		var xs []transfer
		for _, si := range six.AppendQuery(nil, halo) {
			if si != i {
				xs = append(xs, transfer{si, halo.Intersect(boxes[si])})
			}
		}
		ls.exchanges[i] = xs
		if parent != nil {
			ls.fills[i] = d.fillPlan(p, xs, parent, pix)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ls, nil
}

// fillPlan returns the prolongation calls that fill p's halo from the
// parent level, given p's exchange plan xs and the index pix over the
// parent's grown boxes. Each frame strip's sources are the parent
// patches whose grown boxes meet the whole strip's coarsening,
// ascending, as a fill of the whole strip would query them (filtered
// here from one query over the grown box's coarsening): querying per
// piece can drop a parent whose stencil still reaches a cell, which
// changes bits.
func (d *Driver) fillPlan(p *field.Patch, xs []transfer, parent *levelState, pix *geom.BoxIndex) []transfer {
	r := d.cfg.RefRatio
	var calls []transfer
	cands := pix.AppendQuery(nil, p.GrownBox().Coarsen(r))
	for _, strip := range (geom.BoxList{p.GrownBox()}).SubtractBox(p.Box) {
		pieces := geom.BoxList{strip}
		for _, x := range xs {
			if x.region.Intersects(strip) {
				pieces = pieces.SubtractBox(x.region)
			}
		}
		cs := strip.Coarsen(r)
		for _, ci := range cands {
			if parent.patches[ci].GrownBox().Intersects(cs) {
				for _, pc := range pieces {
					calls = append(calls, transfer{ci, pc})
				}
			}
		}
	}
	return calls
}

// fillGhosts fills level l halos by replaying the level's plans: per
// patch, coarse prolongation first (l > 0, on the first substep under a
// parent step only), then same-level exchange (overwriting where
// sibling data exists), then the physical boundary. The fill fans out
// one patch per work unit: a unit writes only its own patch's halo and
// reads parent data, sibling interiors and its own patch, none of which
// any unit writes, so the fill parallelizes without changing a bit.
func (d *Driver) fillGhosts(ctx context.Context, l int, first bool) error {
	ls := d.levels[l]
	var parent *levelState
	if l > 0 {
		parent = d.levels[l-1]
	}
	dom := d.levelDomain(l)
	bc := d.kernel.BC()
	return pool.MapCtx(ctx, d.workers(), len(ls.patches), func(i int) error {
		p := ls.patches[i]
		if parent != nil && first {
			for _, c := range ls.fills[i] {
				field.ProlongLinear(p, parent.patches[c.src], c.region, d.cfg.RefRatio)
			}
		}
		for _, x := range ls.exchanges[i] {
			p.CopyRegion(ls.patches[x.src], x.region)
		}
		field.FillPhysical(p, ls.patches, dom, bc)
		return nil
	})
}

// restrict averages level l+1 data down onto level l along the fine
// level's restriction plan. Each work unit writes one coarse patch and
// reads the fine level only.
func (d *Driver) restrict(ctx context.Context, l int) error {
	coarse, fine := d.levels[l], d.levels[l+1]
	return pool.MapCtx(ctx, d.workers(), len(coarse.patches), func(i int) error {
		cp := coarse.patches[i]
		for _, fi := range fine.restricts[i] {
			field.Restrict(cp, fine.patches[fi], d.cfg.RefRatio)
		}
		return nil
	})
}

// clusterLevel tags level l and returns the new level l+1 boxes (level
// l+1 index space), properly nested inside level l. Tagging fans out
// per patch into private buffers of the clusterer's 8-byte points,
// merged in patch order, so the tag set — and therefore the clustering
// — matches a sequential scan exactly. Tags are cells of levelDomain,
// anchored at the origin, whose extent New holds inside int32.
func (d *Driver) clusterLevel(ctx context.Context, l int) (geom.BoxList, error) {
	ls := d.levels[l]
	g := d.geometry(l)
	tagLists := make([][][2]int32, len(ls.patches))
	err := pool.MapCtx(ctx, d.workers(), len(ls.patches), func(i int) error {
		d.kernel.Tag(ls.patches[i], g, func(x, y int) { tagLists[i] = append(tagLists[i], [2]int32{int32(x), int32(y)}) })
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Patch interiors are disjoint, so the per-patch lists concatenate
	// into a duplicate-free tag set; ClusterPoints is order-invariant,
	// making the result identical to a sequential tag scan.
	pts := slices.Concat(tagLists...)
	if len(pts) == 0 {
		return nil, nil
	}
	dom := d.levelDomain(l)
	boxes := cluster.ClusterPoints(pts, dom, d.cfg.Cluster)
	// Buffer each patch, restore disjointness among the grown boxes
	// (MakeDisjoint subtracts from each box only the kept boxes it
	// meets, though finding them is a scan quadratic in the cluster
	// count), then clip to the level's own boxes for proper nesting.
	// Intersections of two disjoint lists are disjoint, so no quadratic
	// clean-up pass is needed afterwards.
	grown := make(geom.BoxList, 0, len(boxes))
	for _, b := range boxes {
		grown = append(grown, b.Grow(d.cfg.TagBuffer).Intersect(dom))
	}
	grown, err = cluster.MakeDisjoint(ctx, grown)
	if err != nil {
		return nil, err
	}
	lix := ls.interiorIndex()
	var nested geom.BoxList
	var buf []int
	for _, bb := range grown {
		buf = lix.AppendQuery(buf[:0], bb)
		for _, li := range buf {
			if iv := bb.Intersect(ls.boxes[li]); !iv.Empty() {
				nested = append(nested, iv)
			}
		}
	}
	nested = nested.Compact()
	nested.SortByLo()
	return nested.Refine(d.cfg.RefRatio), nil
}

// regrid rebuilds levels l+1 .. MaxLevels-1 from fresh tags, copying old
// data where the new patches overlap the old and prolonging from the
// parent elsewhere (fillNew). Replaced (and dropped) levels are let go
// as soon as the new one is in place.
func (d *Driver) regrid(ctx context.Context, l int) error {
	for k := l; k+1 < d.cfg.MaxLevels; k++ {
		newBoxes, err := d.clusterLevel(ctx, k)
		if err != nil {
			return err
		}
		if len(newBoxes) == 0 {
			// Drop all deeper levels.
			clear(d.levels[k+1:])
			d.levels = d.levels[:k+1]
			return nil
		}
		parent := d.levels[k]
		pix := parent.grownIndex()
		var old *levelState
		var oix *geom.BoxIndex
		if k+1 < len(d.levels) {
			old = d.levels[k+1]
			oix = old.interiorIndex()
		}
		ns, err := d.newLevel(ctx, k+1, newBoxes, func(p *field.Patch) {
			d.fillNew(p, parent, pix, old, oix)
		})
		if err != nil {
			return err
		}
		ns.time = parent.time
		if old != nil {
			ns.steps = old.steps
			d.levels[k+1] = ns
		} else {
			d.levels = append(d.levels, ns)
		}
	}
	return nil
}

// fillNew fills a new patch np of a regridded level: prolongation from
// the parent level (pix indexes its grown boxes) over the whole grown
// box, then the old level's interiors (old, indexed by oix; nil when
// the level is new) where they overlap np. Prolonging only what the
// copy leaves fills an eighth of the cells in three times the calls,
// and measured slower.
func (d *Driver) fillNew(np *field.Patch, parent *levelState, pix *geom.BoxIndex, old *levelState, oix *geom.BoxIndex) {
	grown := np.GrownBox()
	for _, pi := range pix.AppendQuery(nil, grown.Coarsen(d.cfg.RefRatio)) {
		field.ProlongLinear(np, parent.patches[pi], grown, d.cfg.RefRatio)
	}
	if old == nil {
		return
	}
	for _, oi := range oix.AppendQuery(nil, np.Box) {
		np.CopyRegion(old.patches[oi], np.Box.Intersect(old.boxes[oi]))
	}
}

// Hierarchy returns a snapshot of the current grid hierarchy.
func (d *Driver) Hierarchy() *grid.Hierarchy {
	h := &grid.Hierarchy{Domain: d.levelDomain(0), RefRatio: d.cfg.RefRatio}
	for _, ls := range d.levels {
		h.Levels = append(h.Levels, grid.Level{Boxes: ls.boxes.Clone()})
	}
	return h
}

// Run advances steps coarse steps, recording a snapshot after each into
// a trace, and returns the trace. The run is bounded by ctx: a
// cancelled run returns a nil trace and the context's error.
func Run(ctx context.Context, k solver.Kernel, cfg Config, steps int) (*trace.Trace, error) {
	// New builds the whole initial hierarchy and takes no context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := New(k, cfg)
	if err != nil {
		return nil, err
	}
	t := &trace.Trace{
		App:       k.Name(),
		RefRatio:  cfg.RefRatio,
		MaxLevels: cfg.MaxLevels,
		Domain:    d.levelDomain(0),
	}
	t.Append(0, d.Time(), d.Hierarchy())
	for s := 0; s < steps; s++ {
		if err := d.Advance(ctx); err != nil {
			return nil, err
		}
		t.Append(s+1, d.Time(), d.Hierarchy())
	}
	return t, nil
}
