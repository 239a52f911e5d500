package sim

import (
	"fmt"
	"reflect"
	"testing"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// raster is one level of an assignment painted cell by cell: the owner
// of every cell of the window, -1 where no fragment lies. The window is
// the level's bounding box grown by one cell, so every halo cell of a
// fragment has a slot.
type raster struct {
	win   geom.Box
	owner []int32
}

// at returns the owner painted at cell (x, y), or -1 outside the
// window or where no fragment lies.
func (r *raster) at(x, y int) int32 {
	if x < r.win.Lo[0] || x >= r.win.Hi[0] || y < r.win.Lo[1] || y >= r.win.Hi[1] {
		return -1
	}
	return r.owner[(y-r.win.Lo[1])*r.win.Size(0)+x-r.win.Lo[0]]
}

// paintLevels paints a's fragments per level of h. Painting fails the
// test on a cell painted twice or a level painted short of its volume:
// the oracle counts a painted cell as a point of the hierarchy.
func paintLevels(t *testing.T, h *grid.Hierarchy, a *partition.Assignment) []*raster {
	t.Helper()
	rs := make([]*raster, len(h.Levels))
	for l, lev := range h.Levels {
		var bounds geom.Box
		for _, b := range lev.Boxes {
			bounds = bounds.Union(b)
		}
		win := bounds.Grow(1)
		r := &raster{win: win, owner: make([]int32, win.Volume())}
		for i := range r.owner {
			r.owner[i] = -1
		}
		var painted int64
		for _, f := range a.Fragments {
			if f.Level != l {
				continue
			}
			for y := f.Box.Lo[1]; y < f.Box.Hi[1]; y++ {
				for x := f.Box.Lo[0]; x < f.Box.Hi[0]; x++ {
					i := (y-win.Lo[1])*win.Size(0) + x - win.Lo[0]
					if r.owner[i] >= 0 {
						t.Fatalf("level %d cell (%d, %d) painted twice", l, x, y)
					}
					r.owner[i] = int32(f.Owner)
					painted++
				}
			}
		}
		if want := lev.NumPoints(); painted != want {
			t.Fatalf("level %d: painted %d cells of %d", l, painted, want)
		}
		rs[l] = r
	}
	return rs
}

// rasterEvaluate recounts Evaluate's metrics cell by cell: loads from
// the painted owners; intra-level comm as, per fragment and per level
// step, the cells of its one-cell halo (corners included) another
// owner holds; inter-level comm as, per fine fragment and per coarse
// step, the cells of its coarsened footprint another owner holds;
// messages as the distinct (receiver, sender) pairs each level's
// exchange and each level pair's transfer touch, per step.
func rasterEvaluate(t *testing.T, h *grid.Hierarchy, a *partition.Assignment, m Machine) StepMetrics {
	t.Helper()
	rs := paintLevels(t, h, a)
	np := a.NumProcs
	loads := make([]int64, np)
	comm := make([]int64, np)
	msgs := make([]int64, np)
	var sm StepMetrics
	for l, r := range rs {
		for _, o := range r.owner {
			if o >= 0 {
				loads[o] += h.StepFactor(l)
			}
		}
	}
	exchange := func(pairs map[[2]int]bool, steps int64) {
		sm.Messages += int64(len(pairs)) * steps
		for p := range pairs {
			msgs[p[0]] += steps
		}
	}
	for l, r := range rs {
		steps := h.StepFactor(l)
		pairs := map[[2]int]bool{}
		for _, f := range a.Fragments {
			if f.Level != l {
				continue
			}
			g := f.Box.Grow(1)
			for y := g.Lo[1]; y < g.Hi[1]; y++ {
				for x := g.Lo[0]; x < g.Hi[0]; x++ {
					inside := x >= f.Box.Lo[0] && x < f.Box.Hi[0] && y >= f.Box.Lo[1] && y < f.Box.Hi[1]
					if o := int(r.at(x, y)); !inside && o >= 0 && o != f.Owner {
						sm.IntraLevelComm += steps
						comm[f.Owner] += steps
						pairs[[2]int{f.Owner, o}] = true
					}
				}
			}
		}
		exchange(pairs, steps)
	}
	for l := 1; l < len(rs); l++ {
		steps := h.StepFactor(l - 1)
		pairs := map[[2]int]bool{}
		for _, f := range a.Fragments {
			if f.Level != l {
				continue
			}
			under := f.Box.Coarsen(h.RefRatio)
			for y := under.Lo[1]; y < under.Hi[1]; y++ {
				for x := under.Lo[0]; x < under.Hi[0]; x++ {
					if o := int(rs[l-1].at(x, y)); o >= 0 && o != f.Owner {
						sm.InterLevelComm += steps
						comm[f.Owner] += steps
						pairs[[2]int{f.Owner, o}] = true
					}
				}
			}
		}
		exchange(pairs, steps)
	}
	sm.Loads = loads
	sm.Imbalance = partition.ImbalanceOf(loads)
	if w := h.Workload(); w > 0 {
		sm.RelativeComm = float64(sm.TotalComm()) / float64(w)
	}
	for p := range np {
		est := float64(loads[p])*m.CellTime +
			float64(comm[p])/m.PointBandwidth +
			float64(msgs[p])*m.MessageLatency
		sm.EstTime = max(sm.EstTime, est)
	}
	return sm
}

// rasterMigration recounts Migration cell by cell: the cells of the
// levels both hierarchies have that both assignments paint, with
// different owners.
func rasterMigration(t *testing.T, hPrev, hCur *grid.Hierarchy, aPrev, aCur *partition.Assignment) int64 {
	t.Helper()
	prev, cur := paintLevels(t, hPrev, aPrev), paintLevels(t, hCur, aCur)
	var moved int64
	for l := range min(len(prev), len(cur)) {
		w := cur[l].win
		for y := w.Lo[1]; y < w.Hi[1]; y++ {
			for x := w.Lo[0]; x < w.Hi[0]; x++ {
				if o, p := cur[l].at(x, y), prev[l].at(x, y); o >= 0 && p >= 0 && o != p {
					moved++
				}
			}
		}
	}
	return moved
}

// TestEvaluateMatchesRaster holds Evaluate and Migration to the raster
// oracle, bit for bit, on every snapshot of the four quick traces under
// every partitioner of the meta-partitioner's stable at 1, 3 and 16
// processors, migration between consecutive snapshots (the postmap
// member's answers relabeled along the trace, as a run relabels them).
func TestEvaluateMatchesRaster(t *testing.T) {
	m := DefaultMachine()
	stable := core.NewMetaPartitioner(core.DefaultPartitionCost).Stable()
	evals, migrations := 0, 0
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(bg, app)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range stable {
			for _, np := range []int{1, 3, 16} {
				_, postmap := p.(*partition.PostMapped)
				var hPrev *grid.Hierarchy
				var aPrev *partition.Assignment
				for _, snap := range tr.Snapshots {
					where := fmt.Sprintf("%s step %d %s np=%d", app, snap.Step, p.Name(), np)
					a := mustPartition(t, p, snap.H, np)
					if postmap {
						var err error
						if a, err = partition.Remap(bg, aPrev, a); err != nil {
							t.Fatal(err)
						}
					}
					if got, want := mustEvaluate(t, snap.H, a, m), rasterEvaluate(t, snap.H, a, m); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Evaluate %+v, raster %+v", where, got, want)
					}
					evals++
					if aPrev != nil {
						if got, want := Migration(hPrev, snap.H, aPrev, a), rasterMigration(t, hPrev, snap.H, aPrev, a); got != want {
							t.Fatalf("%s: Migration %d, raster %d", where, got, want)
						}
						migrations++
					}
					hPrev, aPrev = snap.H, a
				}
			}
		}
	}
	t.Logf("%d evaluations and %d migrations match the raster", evals, migrations)
}
