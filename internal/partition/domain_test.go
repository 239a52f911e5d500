package partition

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/sfc"
)

// domainSFCReference is DomainSFC as it shipped before it read its
// chain and fragments from the shared bases and bands: every call
// chopped level 0 into units, weighted each by its full column, ordered
// them along the curve, cut the chain, and queried the level indexes
// for every unit's column fragments, unit by unit. It is that body
// verbatim but for the cache: the chain is built per call, and the
// weights come from bandWeights over every level (the columnWeight the
// units carried).
type domainSFCReference struct{ *DomainSFC }

func (d domainSFCReference) Partition(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
	return merged(ctx, h, nprocs, d.fragments)
}

func (d domainSFCReference) fragments(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error) {
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
	chain, err := hi.unitsOf(h.Levels[0].Boxes, us)
	if err != nil {
		return nil, err
	}
	orderUnitsByCurve(chain, d.Curve, us)
	top := len(h.Levels) - 1
	owners := cutChain(hi.bandWeights(chain, 0, top), nprocs)
	a := &Assignment{NumProcs: nprocs}
	for i, u := range chain {
		if i%ctxBatch == 0 {
			if err := hi.check(); err != nil {
				return nil, err
			}
		}
		hi.bandFragments(u.box(), 0, top, owners[i], &a.Fragments)
	}
	return a, nil
}

// TestDomainSFCMatchesReference holds DomainSFC to its uncached column
// body, answer for answer (reflect.DeepEqual, so a nil fragment list
// must stay nil): on the distinct quick-trace snapshots, every snapshot
// of the four paper-16-steps traces (five levels: bands 0-1, 2-3 and
// 4), 300 random hierarchies, testHierarchy and a hierarchy with an
// empty level 0, under four curve and unit specs and six processor
// counts. The caches are flushed once, so consecutive snapshots share
// bases and bands as they do along a trace. The paper-scale traces are
// generated unless -short.
func TestDomainSFCMatchesReference(t *testing.T) {
	ctx := context.Background()
	hs := quickHierarchies(t)
	if !testing.Short() {
		for _, app := range apps.Names {
			tr, err := apps.Generate(ctx, app, apps.PaperConfig(), 16)
			if err != nil {
				t.Fatal(err)
			}
			for _, snap := range tr.Snapshots {
				hs = append(hs, snap.H)
			}
		}
	}
	r := rand.New(rand.NewSource(61))
	for range 300 {
		hs = append(hs, randomHierarchy(r))
	}
	empty := grid.NewHierarchy(geom.NewBox2(0, 0, 8, 8), 2)
	empty.Levels[0].Boxes = nil
	hs = append(hs, testHierarchy(), empty)

	specs := []*DomainSFC{
		{Curve: sfc.Hilbert, UnitSize: 2},
		{Curve: sfc.Morton, UnitSize: 4},
		{Curve: sfc.RowMajor, UnitSize: 1},
		{Curve: sfc.Hilbert, UnitSize: 3},
	}
	flushChainCaches()
	equal := 0
	for _, d := range specs {
		ref := domainSFCReference{d}
		for hn, h := range hs {
			for _, np := range []int{1, 2, 3, 7, 16, 64} {
				got, want := mustPartition(t, d, h, np), mustPartition(t, ref, h, np)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hierarchy %d %s np=%d: %d fragments, reference %d",
						hn, d.Name(), np, len(got.Fragments), len(want.Fragments))
				}
				if h == empty && got.Fragments != nil {
					t.Fatalf("%s np=%d: an empty level 0 answers %#v, want nil fragments", d.Name(), np, got.Fragments)
				}
				equal++
			}
		}
	}
	t.Logf("%d of %d answers equal", equal, len(specs)*len(hs)*6)
}

// TestDomainSFCReusesUnchangedLevels: a DomainSFC call builds only the
// pieces its hierarchy does not share with an earlier one. Along a
// regrid chain over a five-level hierarchy, a step that replaces only
// levels from 2 on builds no base, and misses exactly once per bi-level
// band it replaced; a step whose levels come back builds nothing.
func TestDomainSFCReusesUnchangedLevels(t *testing.T) {
	h0 := testHierarchy()
	h0.Levels = append(h0.Levels,
		grid.Level{Boxes: geom.BoxList{geom.NewBox2(28, 28, 44, 44)}},
		grid.Level{Boxes: geom.BoxList{geom.NewBox2(60, 60, 76, 76)}})
	with := func(levels ...geom.Box) *grid.Hierarchy {
		h := h0.Clone()
		h.Levels = h.Levels[:2]
		for _, b := range levels {
			h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{b}})
		}
		return h
	}
	l2, l3 := h0.Levels[2].Boxes[0], h0.Levels[3].Boxes[0]
	steps := []struct {
		name  string
		h     *grid.Hierarchy
		bands uint64 // bands the step replaces
	}{
		{"level 4 replaced", with(l2, l3, geom.NewBox2(64, 64, 84, 84)), 1},
		{"levels 2-4 replaced", with(geom.NewBox2(10, 10, 26, 26), geom.NewBox2(24, 24, 40, 40), geom.NewBox2(50, 50, 70, 70)), 2},
		{"levels 2-4 back", h0, 0},
		{"level 4 dropped", with(l2, l3), 0},
	}
	for _, s := range steps {
		if err := s.h.Validate(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}

	d := NewDomainSFC()
	flushChainCaches()
	mustPartition(t, d, h0, 8)
	for _, s := range steps {
		_, baseMisses, _ := procChains.bases.Stats()
		_, misses, _, _, _ := CacheStats()
		got := mustPartition(t, d, s.h, 8)
		if _, after, _ := procChains.bases.Stats(); after != baseMisses {
			t.Errorf("%s: built a base", s.name)
		}
		if _, after, _, _, _ := CacheStats(); after-misses != s.bands {
			t.Errorf("%s: %d misses, want one per replaced band (%d)", s.name, after-misses, s.bands)
		}
		if want := mustPartition(t, domainSFCReference{d}, s.h, 8); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: answer differs from the reference", s.name)
		}
	}
}
