package amr

import (
	"math"
	"slices"
	"testing"

	"samr/internal/field"
	"samr/internal/solver"
)

// TestExchangePlanMatchesExchangeGhosts replays every level's exchange
// plan on copies of its patches and holds the result, ghosts included,
// to field.ExchangeGhosts' index-driven sweep over the same copies.
func TestExchangePlanMatchesExchangeGhosts(t *testing.T) {
	for _, k := range allKernels() {
		d, err := New(k, quickConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 6; s++ {
			step(t, d)
		}
		for l, ls := range d.levels {
			planned := make([]*field.Patch, len(ls.patches))
			swept := make([]*field.Patch, len(ls.patches))
			for i, p := range ls.patches {
				planned[i], swept[i] = clonePatch(p), clonePatch(p)
			}
			for i, p := range planned {
				for _, x := range ls.exchanges[i] {
					p.CopyRegion(planned[x.src], x.region)
				}
			}
			field.ExchangeGhosts(swept)
			for i := range planned {
				if !sameGrown(planned[i], swept[i]) {
					t.Errorf("%s level %d patch %v: planned exchange differs from ExchangeGhosts", k.Name(), l, planned[i].Box)
				}
			}
		}
		d.Close()
	}
}

// clonePatch returns a deep copy of p, ghosts included.
func clonePatch(p *field.Patch) *field.Patch {
	q := field.NewPatch(p.Box, p.Ghost, p.NComp)
	q.CopyRegion(p, p.GrownBox())
	return q
}

// sameGrown reports whether a and b hold the same bits over their
// (equal) grown boxes.
func sameGrown(a, b *field.Patch) bool {
	gb := a.GrownBox()
	for c := 0; c < a.NComp; c++ {
		for y := gb.Lo[1]; y < gb.Hi[1]; y++ {
			ra, rb := a.Row(c, y), b.Row(c, y)
			for i := range ra {
				if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
					return false
				}
			}
		}
	}
	return true
}

// TestRestrictPlanMatchesFootprints holds each fine level's restriction
// plan to a scan of every fine patch whose coarsened interior meets the
// coarse patch.
func TestRestrictPlanMatchesFootprints(t *testing.T) {
	d, err := New(solver.NewEuler(), quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for s := 0; s < 6; s++ {
		step(t, d)
		for l := 1; l < len(d.levels); l++ {
			coarse, fine := d.levels[l-1], d.levels[l]
			for i, cp := range coarse.patches {
				var want []int
				for fi, fp := range fine.patches {
					if fp.Box.Coarsen(d.cfg.RefRatio).Intersects(cp.Box) {
						want = append(want, fi)
					}
				}
				if got := fine.restricts[i]; !slices.Equal(got, want) {
					t.Fatalf("step %d level %d coarse patch %d: plan %v, scan %v", s, l, i, got, want)
				}
			}
		}
	}
}
