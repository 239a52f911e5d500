package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntVectArithmetic(t *testing.T) {
	a, b := IV2(3, -2), IV2(1, 5)
	if got := a.Min(b); got != IV2(1, -2) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != IV2(3, 5) {
		t.Errorf("Max = %v", got)
	}
}

func TestBoxVolumeAndEmpty(t *testing.T) {
	b := NewBox2(0, 0, 4, 3)
	if b.Volume() != 12 {
		t.Errorf("Volume = %d, want 12", b.Volume())
	}
	if b.Empty() {
		t.Error("non-degenerate box reported empty")
	}
	e := NewBox2(2, 2, 2, 5)
	if !e.Empty() || e.Volume() != 0 {
		t.Errorf("degenerate box: Empty=%v Volume=%d", e.Empty(), e.Volume())
	}
}

func TestBoxSurface(t *testing.T) {
	if s := NewBox2(0, 0, 4, 3).Surface(); s != 14 {
		t.Errorf("2-D Surface = %d, want 14", s)
	}
	if s := NewBox2(1, 1, 1, 5).Surface(); s != 0 {
		t.Errorf("empty box Surface = %d, want 0", s)
	}
}

func TestBoxContains(t *testing.T) {
	b := NewBox2(1, 1, 4, 4)
	cases := []struct {
		p    IntVect
		want bool
	}{
		{IV2(1, 1), true},
		{IV2(3, 3), true},
		{IV2(4, 3), false}, // Hi is exclusive
		{IV2(0, 2), false},
	}
	for _, c := range cases {
		if got := b.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox2(0, 0, 4, 4)
	b := NewBox2(2, 2, 6, 6)
	iv := a.Intersect(b)
	if iv != NewBox2(2, 2, 4, 4) {
		t.Errorf("Intersect = %v", iv)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false")
	}
	c := NewBox2(4, 0, 8, 4) // shares only the x=4 face: no cells
	if a.Intersects(c) {
		t.Error("face-adjacent boxes should not intersect")
	}
	if v := a.Intersect(c).Volume(); v != 0 {
		t.Errorf("face-adjacent overlap volume = %d", v)
	}
}

func TestBoxUnionBounds(t *testing.T) {
	a := NewBox2(0, 0, 2, 2)
	b := NewBox2(5, 5, 7, 9)
	u := a.Union(b)
	if u != NewBox2(0, 0, 7, 9) {
		t.Errorf("Union = %v", u)
	}
	var e Box
	if a.Union(e) != a || e.Union(a) != a {
		t.Error("union with empty box should be identity")
	}
}

func TestBoxGrowShift(t *testing.T) {
	b := NewBox2(2, 2, 4, 4)
	if g := b.Grow(1); g != NewBox2(1, 1, 5, 5) {
		t.Errorf("Grow = %v", g)
	}
	if g := b.Grow(-1); !g.Empty() {
		t.Errorf("Grow(-1) of 2x2 should be empty, got %v", g)
	}
}

func TestRefineCoarsenRoundTrip(t *testing.T) {
	b := NewBox2(-3, 2, 5, 9)
	if got := b.Refine(2).Coarsen(2); got != b {
		t.Errorf("refine-then-coarsen = %v, want %v", got, b)
	}
	// Coarsening rounds outward.
	c := NewBox2(1, 1, 3, 3).Coarsen(2)
	if c != NewBox2(0, 0, 2, 2) {
		t.Errorf("Coarsen outward = %v", c)
	}
	// Negative coordinates.
	n := NewBox2(-3, -1, -1, 1).Coarsen(2)
	if n != NewBox2(-2, -1, 0, 1) {
		t.Errorf("negative Coarsen = %v", n)
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, floor, ceil int }{
		{7, 2, 3, 4}, {-7, 2, -4, -3}, {8, 2, 4, 4}, {-8, 2, -4, -4}, {0, 3, 0, 0},
	}
	for _, c := range cases {
		if f := floorDiv(c.a, c.b); f != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, f, c.floor)
		}
		if cl := ceilDiv(c.a, c.b); cl != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, cl, c.ceil)
		}
	}
}

func TestChopDim(t *testing.T) {
	b := NewBox2(0, 0, 10, 4)
	lo, hi := b.ChopDim(0, 6)
	if lo != NewBox2(0, 0, 6, 4) || hi != NewBox2(6, 0, 10, 4) {
		t.Errorf("ChopDim: lo=%v hi=%v", lo, hi)
	}
	if lo.Volume()+hi.Volume() != b.Volume() {
		t.Error("chop does not preserve volume")
	}
	lo, hi = b.ChopDim(0, -5) // clamped
	if !lo.Empty() || hi != b {
		t.Errorf("clamped chop: lo=%v hi=%v", lo, hi)
	}
}

func TestSubtract(t *testing.T) {
	b := NewBox2(0, 0, 8, 8)
	hole := NewBox2(2, 2, 5, 6)
	parts := b.Subtract(hole)
	var vol int64
	for i, p := range parts {
		if p.Intersects(hole) {
			t.Errorf("part %d %v intersects the hole", i, p)
		}
		for j := i + 1; j < len(parts); j++ {
			if p.Intersects(parts[j]) {
				t.Errorf("parts %d and %d overlap", i, j)
			}
		}
		vol += p.Volume()
	}
	if vol != b.Volume()-hole.Volume() {
		t.Errorf("subtract volume = %d, want %d", vol, b.Volume()-hole.Volume())
	}
	// Disjoint subtraction returns the original box.
	if got := b.Subtract(NewBox2(20, 20, 25, 25)); len(got) != 1 || got[0] != b {
		t.Errorf("disjoint Subtract = %v", got)
	}
	// Full coverage returns nothing.
	if got := b.Subtract(b.Grow(1)); len(got) != 0 {
		t.Errorf("covered Subtract = %v", got)
	}
}

func TestCellsIteration(t *testing.T) {
	b := NewBox2(1, 2, 3, 4)
	var seen []IntVect
	b.Cells(func(p IntVect) { seen = append(seen, p) })
	want := []IntVect{IV2(1, 2), IV2(2, 2), IV2(1, 3), IV2(2, 3)}
	if len(seen) != len(want) {
		t.Fatalf("Cells visited %d cells, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("cell %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestLongestDim(t *testing.T) {
	if d := NewBox2(0, 0, 10, 3).LongestDim(); d != 0 {
		t.Errorf("LongestDim = %d, want 0", d)
	}
	if d := NewBox2(0, 0, 3, 10).LongestDim(); d != 1 {
		t.Errorf("LongestDim = %d, want 1", d)
	}
}

// randomBox returns a box inside [-20,20]^2 with sides in [1,10].
func randomBox(r *rand.Rand) Box {
	x, y := r.Intn(40)-20, r.Intn(40)-20
	return NewBox2(x, y, x+1+r.Intn(10), y+1+r.Intn(10))
}

func TestPropertyIntersectionCommutes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randomBox(r), randomBox(r)
		ab, ba := a.Intersect(b), b.Intersect(a)
		if ab.Volume() != ba.Volume() {
			t.Fatalf("intersection volume not commutative: %v vs %v", ab, ba)
		}
		if !ab.Empty() && ab != ba {
			t.Fatalf("intersection not commutative: %v vs %v", ab, ba)
		}
	}
}

func TestPropertySubtractPartition(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randomBox(r), randomBox(r)
		parts := a.Subtract(b)
		var vol int64
		for _, p := range parts {
			vol += p.Volume()
		}
		if want := a.Volume() - a.Intersect(b).Volume(); vol != want {
			t.Fatalf("subtract volume %d, want %d (a=%v b=%v)", vol, want, a, b)
		}
	}
}

func TestPropertyRefineVolume(t *testing.T) {
	f := func(x, y int8, w, h uint8) bool {
		b := NewBox2(int(x), int(y), int(x)+int(w%16)+1, int(y)+int(h%16)+1)
		return b.Refine(2).Volume() == 4*b.Volume() &&
			b.Refine(4).Volume() == 16*b.Volume()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCoarsenCovers(t *testing.T) {
	f := func(x, y int8, w, h uint8) bool {
		b := NewBox2(int(x), int(y), int(x)+int(w%16)+1, int(y)+int(h%16)+1)
		// The refined coarsened box must cover the original.
		return b.Coarsen(2).Refine(2).ContainsBox(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
