package field

import (
	"testing"

	"samr/internal/geom"
)

// TestRowAliasesStorage verifies Row/RowSpan expose the same cells as
// At, and that writes through a row are visible to At.
func TestRowAliasesStorage(t *testing.T) {
	p := NewPatch(geom.NewBox2(2, 3, 6, 7), 1, 2)
	v := 0.0
	p.GrownBox().Cells(func(q geom.IntVect) {
		set(p, 1, q[0], q[1], v)
		v++
	})
	gb := p.GrownBox()
	for y := gb.Lo[1]; y < gb.Hi[1]; y++ {
		row := p.Row(1, y)
		if len(row) != gb.Size(0) {
			t.Fatalf("row length %d, want %d", len(row), gb.Size(0))
		}
		for i, got := range row {
			if want := p.At(1, gb.Lo[0]+i, y); got != want {
				t.Fatalf("Row(1,%d)[%d] = %v, want %v", y, i, got, want)
			}
		}
	}
	span := p.RowSpan(1, 4, 3, 5)
	if len(span) != 2 {
		t.Fatalf("span length %d", len(span))
	}
	span[0] = -7
	if p.At(1, 3, 4) != -7 {
		t.Error("write through RowSpan not visible to At")
	}
}

// TestRowIterators checks the interior iterator covers exactly the
// interior.
func TestRowIterators(t *testing.T) {
	p := NewPatch(geom.NewBox2(1, 1, 5, 4), 2, 1)
	rows, cells := 0, 0
	p.InteriorRows(0, func(y int, row []float64) {
		if y < p.Box.Lo[1] || y >= p.Box.Hi[1] {
			t.Fatalf("interior row y=%d outside %v", y, p.Box)
		}
		rows++
		cells += len(row)
	})
	if rows != p.Box.Size(1) || int64(cells) != p.Box.Volume() {
		t.Fatalf("interior iteration covered %d rows / %d cells, want %d / %d",
			rows, cells, p.Box.Size(1), p.Box.Volume())
	}
}

// TestSlabReuse verifies the free list recycles a released slab of the
// same size class and that NewPatch zeroes recycled storage.
func TestSlabReuse(t *testing.T) {
	box := geom.NewBox2(0, 0, 8, 8)
	p := NewPatch(box, 1, 1)
	p.Fill(0, 42)
	p.Release()
	q := NewPatch(box, 1, 1)
	q.GrownBox().Cells(func(c geom.IntVect) {
		if q.At(0, c[0], c[1]) != 0 {
			t.Fatalf("recycled patch not zeroed at %v", c)
		}
	})
	q.Release()
}

// TestCloneIndependence verifies a clone (whose slab also comes from
// the free list) is decoupled from its source.
func TestCloneIndependence(t *testing.T) {
	p := NewPatch(geom.NewBox2(0, 0, 4, 4), 1, 1)
	p.Fill(0, 3)
	c := p.Clone()
	defer c.Release()
	set(p, 0, 1, 1, -1)
	if c.At(0, 1, 1) != 3 {
		t.Error("clone shares storage with source")
	}
}

// TestSlabClasses pins the size-class rounding: in-range capacities
// round to powers of two, out-of-range requests bypass the pool.
func TestSlabClasses(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, minSlabBits}, {64, minSlabBits}, {65, 7}, {1024, 10}, {1025, 11},
	} {
		if got := slabClass(tc.n); got != tc.class {
			t.Errorf("slabClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	if slabClass(0) != -1 || slabClass(1<<27) != -1 {
		t.Error("out-of-range sizes must bypass the pool")
	}
	s := acquireSlab(100)
	if len(s) != 100 || cap(s) != 128 {
		t.Errorf("acquireSlab(100): len %d cap %d, want 100/128", len(s), cap(s))
	}
	releaseSlab(s)
}
