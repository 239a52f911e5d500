package partition_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// roundTrip packs a and requires the unpacked copy to equal it and to
// share no storage with it.
func roundTrip(t *testing.T, what string, a *partition.Assignment) {
	t.Helper()
	p, err := partition.Pack(a)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got := p.Unpack()
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("%s: unpacked assignment differs from the packed one", what)
	}
	if len(got.Fragments) > 0 && &got.Fragments[0] == &a.Fragments[0] {
		t.Fatalf("%s: unpacked assignment aliases the packed one", what)
	}
}

// randomPackHierarchy builds a random valid hierarchy of up to four
// levels over a base domain that may sit off the origin, at negative
// coordinates too.
func randomPackHierarchy(r *rand.Rand) *grid.Hierarchy {
	x0, y0 := r.Intn(64)-32, r.Intn(64)-32
	h := grid.NewHierarchy(geom.NewBox2(x0, y0, x0+8+r.Intn(24), y0+8+r.Intn(24)), 2)
	parent := geom.BoxList{h.Domain}
	for l := 1; l < 4 && len(parent) > 0; l++ {
		var boxes geom.BoxList
		for _, pb := range parent {
			f := pb.Refine(2)
			for try := 0; try < 3; try++ {
				w, hh := 1+r.Intn(f.Size(0)), 1+r.Intn(f.Size(1))
				x, y := f.Lo[0]+r.Intn(f.Size(0)-w+1), f.Lo[1]+r.Intn(f.Size(1)-hh+1)
				b := geom.NewBox2(x, y, x+w, y+hh)
				if !slices.ContainsFunc(boxes, b.Intersects) {
					boxes = append(boxes, b)
				}
			}
		}
		if r.Intn(4) == 0 {
			break
		}
		h.Levels = append(h.Levels, grid.Level{Boxes: boxes})
		parent = boxes
	}
	return h
}

// TestPackRoundTrips: every assignment the meta-partitioner's stable
// makes of the quick traces and of random hierarchies, at several
// processor counts, unpacks to itself.
func TestPackRoundTrips(t *testing.T) {
	ctx := context.Background()
	var hs []*grid.Hierarchy
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range tr.Snapshots {
			hs = append(hs, snap.H)
		}
	}
	r := rand.New(rand.NewSource(37))
	for n := len(hs) + 60; len(hs) < n; {
		if h := randomPackHierarchy(r); h.Validate() == nil {
			hs = append(hs, h)
		}
	}
	for _, p := range core.NewMetaPartitioner(core.DefaultPartitionCost).Stable() {
		for i, h := range hs {
			for _, np := range []int{1, 3, 16} {
				a, err := p.Partition(ctx, h, np)
				if err != nil {
					t.Fatal(err)
				}
				roundTrip(t, p.Name(), a)
				if i == 0 && np == 1 {
					roundTrip(t, p.Name()+" (no fragments)", &partition.Assignment{NumProcs: np, Fragments: a.Fragments[:0]})
				}
			}
		}
	}
	roundTrip(t, "nil fragments", &partition.Assignment{NumProcs: 2})
	edge := math.MaxInt32
	roundTrip(t, "int32 edges", &partition.Assignment{NumProcs: edge, Fragments: []partition.Fragment{
		{Level: 255, Box: geom.NewBox2(-edge-1, -edge-1, edge, edge), Owner: edge - 1},
		{Level: 0, Box: geom.NewBox2(0, 0, 1, 1), Owner: -1},
	}})
}

// TestPackRefusesWhatDoesNotFit: a fragment the packed form cannot hold
// exactly fails the whole Pack, never truncated.
func TestPackRefusesWhatDoesNotFit(t *testing.T) {
	ok := partition.Fragment{Level: 1, Box: geom.NewBox2(0, 0, 4, 4), Owner: 0}
	deep := geom.NewBox2(0, 0, 4, 4)
	deep.Hi[2] = 2
	flat := geom.NewBox2(0, 0, 4, 4)
	flat.Dim = 3
	for name, f := range map[string]partition.Fragment{
		"corner past int32":  {Box: geom.NewBox2(0, 0, math.MaxInt32+1, 4)},
		"corner below int32": {Box: geom.NewBox2(math.MinInt32-1, 0, 4, 4)},
		"corner at 2^32":     {Box: geom.NewBox2(0, 1<<32, 4, 1<<32+4)},
		"level past a byte":  {Level: 256, Box: geom.NewBox2(0, 0, 4, 4)},
		"negative level":     {Level: -1, Box: geom.NewBox2(0, 0, 4, 4)},
		"owner past int32":   {Box: geom.NewBox2(0, 0, 4, 4), Owner: math.MaxInt32 + 1},
		"third component":    {Box: deep},
		"dimension":          {Box: flat},
	} {
		a := &partition.Assignment{NumProcs: 1, Fragments: []partition.Fragment{ok, f}}
		if p, err := partition.Pack(a); err == nil {
			t.Errorf("%s: packed %v, unpacking to %v", name, f, p.Unpack().Fragments)
		}
	}
}
