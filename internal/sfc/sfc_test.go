package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMortonSmallGrid(t *testing.T) {
	// The first four Morton indices trace the Z shape on a 2x2 grid.
	want := map[[2]int]int64{
		{0, 0}: 0, {1, 0}: 1, {0, 1}: 2, {1, 1}: 3,
	}
	for p, w := range want {
		if got := Index(Morton, p[0], p[1]); got != w {
			t.Errorf("Morton(%d,%d) = %d, want %d", p[0], p[1], got, w)
		}
	}
}

func TestMortonDistinct(t *testing.T) {
	seen := map[int64][2]int{}
	for x := 0; x < 32; x++ {
		for y := 0; y < 32; y++ {
			idx := Index(Morton, x, y)
			if prev, dup := seen[idx]; dup {
				t.Fatalf("Morton collision: (%d,%d) and %v -> %d", x, y, prev, idx)
			}
			seen[idx] = [2]int{x, y}
		}
	}
}

func TestHilbertBijectiveOnGrid(t *testing.T) {
	seen := map[int64]bool{}
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			idx := Index(Hilbert, x, y)
			if seen[idx] {
				t.Fatalf("Hilbert collision at (%d,%d)", x, y)
			}
			seen[idx] = true
			px, py := HilbertPoint(idx)
			if px != x || py != y {
				t.Fatalf("HilbertPoint(%d) = (%d,%d), want (%d,%d)", idx, px, py, x, y)
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert indices must map to 4-adjacent cells: the
	// defining locality property that Morton does not have.
	for d := int64(0); d < 1023; d++ {
		x0, y0 := HilbertPoint(d)
		x1, y1 := HilbertPoint(d + 1)
		dist := abs(x1-x0) + abs(y1-y0)
		if dist != 1 {
			t.Fatalf("Hilbert jump of %d between d=%d (%d,%d) and d+1 (%d,%d)",
				dist, d, x0, y0, x1, y1)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestRowMajorOrder(t *testing.T) {
	if Index(RowMajor, 3, 0) >= Index(RowMajor, 0, 1) {
		t.Error("row-major should order by y first")
	}
	if Index(RowMajor, 0, 0) >= Index(RowMajor, 1, 0) {
		t.Error("row-major should order by x within a row")
	}
}

func TestPropertyIndexNonNegative(t *testing.T) {
	f := func(x, y uint16) bool {
		return Index(Morton, int(x), int(y)) >= 0 &&
			Index(Hilbert, int(x), int(y)) >= 0 &&
			Index(RowMajor, int(x), int(y)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMortonMonotoneInQuadrant(t *testing.T) {
	// Doubling both coordinates of distinct points preserves Morton order.
	f := func(ax, ay, bx, by uint8) bool {
		a := Index(Morton, int(ax), int(ay))
		b := Index(Morton, int(bx), int(by))
		a2 := Index(Morton, int(ax)*2, int(ay)*2)
		b2 := Index(Morton, int(bx)*2, int(by)*2)
		return (a < b) == (a2 < b2) || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// locality measures the mean index gap between 4-adjacent cells: a proxy
// for partition-boundary quality. Hilbert must beat RowMajor.
func locality(c Curve, n int) float64 {
	var total, count float64
	gap := func(a, b int64) {
		d := b - a
		if d < 0 {
			d = -d
		}
		total += float64(d)
		count++
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x+1 < n {
				gap(Index(c, x, y), Index(c, x+1, y))
			}
			if y+1 < n {
				gap(Index(c, x, y), Index(c, x, y+1))
			}
		}
	}
	return total / count
}

func TestHilbertLocalityBeatsRowMajor(t *testing.T) {
	h, r := locality(Hilbert, 32), locality(RowMajor, 32)
	if h >= r {
		t.Errorf("Hilbert locality %f should beat row-major %f", h, r)
	}
}

func BenchmarkHilbertIndex(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xs := make([]int, 1024)
	ys := make([]int, 1024)
	for i := range xs {
		xs[i], ys[i] = r.Intn(1<<20), r.Intn(1<<20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Index(Hilbert, xs[i%1024], ys[i%1024])
	}
}

func BenchmarkMortonIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Index(Morton, i&0xFFFFF, (i>>1)&0xFFFFF)
	}
}
