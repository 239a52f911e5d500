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

// TestCloneIndependence verifies a clone is decoupled from its source.
func TestCloneIndependence(t *testing.T) {
	p := NewPatch(geom.NewBox2(0, 0, 4, 4), 1, 1)
	p.Fill(0, 3)
	c := p.clone()
	set(p, 0, 1, 1, -1)
	if c.At(0, 1, 1) != 3 {
		t.Error("clone shares storage with source")
	}
}
