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
// # Parallel execution
//
// Every per-patch phase of the advance — kernel steps, halo
// prolongation, same-level ghost exchange, physical boundary fills,
// restriction, tagging, and regrid data fills — fans out over
// internal/pool with one patch per work unit. A phase writes only the
// patch assigned to the unit (its interior for steps and restriction,
// its halo for the fill phases, a private tag buffer for tagging) and
// reads patches no phase-mate writes, so phases are race-free and the
// hierarchy evolution is bit-identical to a sequential run at any
// worker count (Config.Workers). Advance takes a context.Context per
// the repository's cancellation contract: a cancelled advance stops
// dispatching patch units, drains in-flight work, and returns the
// context's error; the driver's solution state is then indeterminate
// and only Close may follow. Patch slabs come from internal/field's
// free list; regridding releases replaced patches, so steady-state
// trace generation stops allocating the hierarchy over and over.
package amr

import (
	"context"
	"fmt"
	"sync"

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

	// Geometry caches, built lazily on first use and valid until the
	// level's box set changes (regridding installs a fresh levelState,
	// so the caches never go stale). They are built from sequential
	// driver code before any parallel fan-out touches the level.
	interiorIx *geom.BoxIndex // over patch interiors (exchange, nesting)
	grownIx    *geom.BoxIndex // over grown boxes (prolongation sources)
	footIx     *geom.BoxIndex // over coarsened interiors (restriction)
	frames     []geom.BoxList // per patch: grown box minus interior
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

// footIndex returns the BoxIndex over the level's patch interiors
// coarsened by ratio (the footprint the parent level restricts from).
func (ls *levelState) footIndex(ratio int) *geom.BoxIndex {
	if ls.footIx == nil {
		foot := make(geom.BoxList, len(ls.patches))
		for i, fp := range ls.patches {
			foot[i] = fp.Box.Coarsen(ratio)
		}
		ls.footIx = geom.NewBoxIndex(foot)
	}
	return ls.footIx
}

// frameBoxes returns, per patch, the halo frame (grown box minus
// interior) that prolongation fills.
func (ls *levelState) frameBoxes() []geom.BoxList {
	if ls.frames == nil {
		ls.frames = make([]geom.BoxList, len(ls.patches))
		for i, p := range ls.patches {
			ls.frames[i] = geom.BoxList{p.GrownBox()}.SubtractBox(p.Box)
		}
	}
	return ls.frames
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
	d := &Driver{cfg: cfg, kernel: k}
	d.dt0 = cfg.CFL * d.dx(0) / k.MaxSpeed()
	base := &levelState{boxes: geom.BoxList{d.levelDomain(0)}}
	base.patches = d.makePatches(base.boxes)
	d.initPatches(base.patches, 0)
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
		ls := &levelState{boxes: boxes, patches: d.makePatches(boxes)}
		d.initPatches(ls.patches, l+1)
		d.levels = append(d.levels, ls)
	}
	return d, nil
}

// Close releases every patch slab back to the free list. The driver
// must not be used afterwards.
func (d *Driver) Close() {
	for _, ls := range d.levels {
		releasePatches(ls.patches)
	}
	d.levels = nil
}

// workers returns the per-phase fan-out width.
func (d *Driver) workers() int {
	if d.cfg.Workers > 0 {
		return d.cfg.Workers
	}
	return pool.Workers()
}

// initPatches runs the kernel's initial condition on every patch.
func (d *Driver) initPatches(patches []*field.Patch, level int) {
	g := d.geometry(level)
	// The background context never cancels and Init cannot fail, so
	// there is no error to report.
	_ = pool.MapCtx(context.Background(), d.workers(), len(patches), func(i int) error {
		d.kernel.Init(patches[i], g)
		return nil
	})
}

// releasePatches hands the patches' slabs back to the free list.
func releasePatches(patches []*field.Patch) {
	for _, p := range patches {
		p.Release()
	}
}

// intBufPool recycles the BoxIndex query buffers of the parallel
// phases: work units are one patch each, so without pooling every
// patch visit would allocate a fresh candidate buffer per substep.
var intBufPool = sync.Pool{New: func() any { return new([]int) }}

// getBuf borrows a query buffer; returns it and the put-back handle.
func getBuf() (*[]int, []int) {
	bp := intBufPool.Get().(*[]int)
	return bp, (*bp)[:0]
}

// putBuf returns a borrowed buffer, keeping any growth.
func putBuf(bp *[]int, buf []int) {
	*bp = buf
	intBufPool.Put(bp)
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

// makePatches allocates solution storage for the given boxes.
func (d *Driver) makePatches(boxes geom.BoxList) []*field.Patch {
	out := make([]*field.Patch, len(boxes))
	for i, b := range boxes {
		out[i] = field.NewPatch(b, d.kernel.Ghost(), d.kernel.NComp())
	}
	return out
}

// Advance advances the whole hierarchy by one coarse time step,
// fanning per-patch work over the worker pool. A cancelled ctx aborts
// between patch units and returns the context's error; the solution
// state is then indeterminate and the driver must not be advanced
// again.
func (d *Driver) Advance(ctx context.Context) error {
	if err := d.advance(ctx, 0); err != nil {
		return fmt.Errorf("amr: %w", err)
	}
	d.step++
	return nil
}

// Time returns the current physical time (base-level clock).
func (d *Driver) Time() float64 { return d.levels[0].time }

// advance performs one time step on level l, recursing into finer
// levels with RefRatio substeps each, then restricting and possibly
// regridding (Berger–Colella order).
func (d *Driver) advance(ctx context.Context, l int) error {
	ls := d.levels[l]
	dt := d.dt0
	for i := 0; i < l; i++ {
		dt /= float64(d.cfg.RefRatio)
	}
	if err := d.fillGhosts(ctx, l); err != nil {
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
			if err := d.advance(ctx, l+1); err != nil {
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

// fillGhosts fills level l halos: coarse prolongation first (l > 0),
// then same-level exchange (overwriting where sibling data exists), then
// the physical boundary. Each phase fans out one patch per work unit —
// a unit writes only its own patch's halo and reads parent or sibling
// data no unit writes, so the phases parallelize without changing a
// bit. Prolongation sources are found through a BoxIndex over the
// parent level's grown boxes instead of scanning every parent patch per
// frame box.
func (d *Driver) fillGhosts(ctx context.Context, l int) error {
	ls := d.levels[l]
	if l > 0 {
		parent := d.levels[l-1]
		ix := parent.grownIndex()
		frames := ls.frameBoxes()
		err := pool.MapCtx(ctx, d.workers(), len(ls.patches), func(i int) error {
			p := ls.patches[i]
			bp, buf := getBuf()
			for _, fb := range frames[i] {
				coarseFrame := fb.Coarsen(d.cfg.RefRatio)
				buf = ix.AppendQuery(buf[:0], coarseFrame)
				for _, ci := range buf {
					field.ProlongLinear(p, parent.patches[ci], fb, d.cfg.RefRatio)
				}
			}
			putBuf(bp, buf)
			return nil
		})
		if err != nil {
			return err
		}
	}
	if len(ls.patches) > 1 {
		six := ls.interiorIndex()
		err := pool.MapCtx(ctx, d.workers(), len(ls.patches), func(i int) error {
			bp, buf := getBuf()
			putBuf(bp, field.ExchangeGhostsWith(ls.patches, six, i, buf))
			return nil
		})
		if err != nil {
			return err
		}
	}
	dom := d.levelDomain(l)
	bc := d.kernel.BC()
	return pool.MapCtx(ctx, d.workers(), len(ls.patches), func(i int) error {
		field.FillPhysical(ls.patches[i], ls.patches, dom, bc)
		return nil
	})
}

// restrict averages level l+1 data down onto level l, pairing coarse
// patches with the fine patches above them via a BoxIndex over the fine
// footprints. Each work unit writes one coarse patch and reads the fine
// level only.
func (d *Driver) restrict(ctx context.Context, l int) error {
	coarse, fine := d.levels[l], d.levels[l+1]
	ix := fine.footIndex(d.cfg.RefRatio)
	return pool.MapCtx(ctx, d.workers(), len(coarse.patches), func(i int) error {
		cp := coarse.patches[i]
		bp, buf := getBuf()
		buf = ix.AppendQuery(buf, cp.Box)
		for _, fi := range buf {
			field.Restrict(cp, fine.patches[fi], d.cfg.RefRatio)
		}
		putBuf(bp, buf)
		return nil
	})
}

// clusterLevel tags level l and returns the new level l+1 boxes (level
// l+1 index space), properly nested inside level l. Tagging fans out
// per patch into private buffers merged in patch order, so the tag set
// — and therefore the clustering — matches a sequential scan exactly.
func (d *Driver) clusterLevel(ctx context.Context, l int) (geom.BoxList, error) {
	ls := d.levels[l]
	g := d.geometry(l)
	tagLists := make([][]geom.IntVect, len(ls.patches))
	err := pool.MapCtx(ctx, d.workers(), len(ls.patches), func(i int) error {
		var list []geom.IntVect
		d.kernel.Tag(ls.patches[i], g, func(x, y int) { list = append(list, geom.IV2(x, y)) })
		tagLists[i] = list
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Patch interiors are disjoint, so the per-patch lists concatenate
	// into a duplicate-free tag set; ClusterPoints is order-invariant,
	// making the result identical to a sequential tag scan.
	n := 0
	for _, list := range tagLists {
		n += len(list)
	}
	pts := make([]geom.IntVect, 0, n)
	for _, list := range tagLists {
		pts = append(pts, list...)
	}
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
	grown = cluster.MakeDisjoint(grown)
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
// parent elsewhere. Replaced (and dropped) patches are released back to
// the slab free list, so steady-state regridding recycles memory
// instead of reallocating the hierarchy.
func (d *Driver) regrid(ctx context.Context, l int) error {
	for k := l; k+1 < d.cfg.MaxLevels; k++ {
		newBoxes, err := d.clusterLevel(ctx, k)
		if err != nil {
			return err
		}
		if len(newBoxes) == 0 {
			// Drop all deeper levels.
			for _, ls := range d.levels[k+1:] {
				releasePatches(ls.patches)
			}
			d.levels = d.levels[:k+1]
			return nil
		}
		newPatches := d.makePatches(newBoxes)
		parent := d.levels[k]
		pix := parent.grownIndex()
		err = pool.MapCtx(ctx, d.workers(), len(newPatches), func(i int) error {
			np := newPatches[i]
			// Base fill: prolong everything from the parent level.
			coarse := np.GrownBox().Coarsen(d.cfg.RefRatio)
			bp, buf := getBuf()
			buf = pix.AppendQuery(buf, coarse)
			for _, pi := range buf {
				field.ProlongLinear(np, parent.patches[pi], np.GrownBox(), d.cfg.RefRatio)
			}
			putBuf(bp, buf)
			return nil
		})
		if err != nil {
			releasePatches(newPatches)
			return err
		}
		if k+1 < len(d.levels) {
			old := d.levels[k+1]
			oix := old.interiorIndex()
			err = pool.MapCtx(ctx, d.workers(), len(newPatches), func(i int) error {
				np := newPatches[i]
				bp, buf := getBuf()
				buf = oix.AppendQuery(buf, np.Box)
				for _, oi := range buf {
					op := old.patches[oi]
					np.CopyRegion(op, np.Box.Intersect(op.Box))
				}
				putBuf(bp, buf)
				return nil
			})
			if err != nil {
				releasePatches(newPatches)
				return err
			}
		}
		ns := &levelState{boxes: newBoxes, patches: newPatches, time: parent.time}
		if k+1 < len(d.levels) {
			ns.steps = d.levels[k+1].steps
			releasePatches(d.levels[k+1].patches)
			d.levels[k+1] = ns
		} else {
			ns.steps = 0
			d.levels = append(d.levels, ns)
		}
	}
	return nil
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
// cancelled run returns a nil trace and the context's error. The
// driver's patch slabs are recycled into the free list when the run
// finishes either way.
func Run(ctx context.Context, k solver.Kernel, cfg Config, steps int) (*trace.Trace, error) {
	// New builds the whole initial hierarchy and takes no context.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := New(k, cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
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
