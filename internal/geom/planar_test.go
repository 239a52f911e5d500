package geom

import (
	"math/rand"
	"testing"
)

// The bodies Box shipped before the planar kernels: loops over the
// active dimensions, right for every Dim. They are the oracle the planar
// kernels are compared against, box for box, on the one layout the
// decoders admit.

func emptyGeneric(b Box) bool {
	if b.Dim == 0 {
		return true
	}
	for d := 0; d < b.Dim; d++ {
		if b.Hi[d] <= b.Lo[d] {
			return true
		}
	}
	return false
}

func volumeGeneric(b Box) int64 {
	if emptyGeneric(b) {
		return 0
	}
	v := int64(1)
	for d := 0; d < b.Dim; d++ {
		v *= int64(b.Hi[d] - b.Lo[d])
	}
	return v
}

func intersectGeneric(b, o Box) Box {
	r := Box{Lo: b.Lo.Max(o.Lo), Hi: b.Hi.Min(o.Hi), Dim: b.Dim}
	if emptyGeneric(r) {
		return Box{Dim: b.Dim, Lo: r.Lo, Hi: r.Lo}
	}
	return r
}

func intersectsGeneric(b, o Box) bool {
	for d := 0; d < b.Dim; d++ {
		if b.Hi[d] <= o.Lo[d] || o.Hi[d] <= b.Lo[d] {
			return false
		}
	}
	return !emptyGeneric(b) && !emptyGeneric(o)
}

func unionGeneric(b, o Box) Box {
	if emptyGeneric(b) {
		return o
	}
	if emptyGeneric(o) {
		return b
	}
	return Box{Lo: b.Lo.Min(o.Lo), Hi: b.Hi.Max(o.Hi), Dim: b.Dim}
}

func tryMergeGeneric(a, b Box) (Box, bool) {
	diff := -1
	for d := 0; d < a.Dim; d++ {
		if a.Lo[d] == b.Lo[d] && a.Hi[d] == b.Hi[d] {
			continue
		}
		if diff >= 0 {
			return Box{}, false
		}
		diff = d
	}
	if diff < 0 {
		return a, true // identical boxes
	}
	if a.Hi[diff] == b.Lo[diff] || b.Hi[diff] == a.Lo[diff] {
		return unionGeneric(a, b), true
	}
	return Box{}, false
}

// kernelBox draws from a small lattice so that shared faces, equal
// extents, zero extents and inverted corners all come up often. The
// third component is off its pinned 0/1 one time in four: Intersect and
// Union carry it through, and everything else must ignore it.
func kernelBox(r *rand.Rand) Box {
	c := func() int { return r.Intn(7) - 2 }
	b := Box{Lo: IntVect{c(), c(), 0}, Hi: IntVect{c(), c(), 1}, Dim: 2}
	if r.Intn(4) == 0 {
		b.Lo[2], b.Hi[2] = c(), c()
	}
	return b
}

func TestPlanarKernelsMatchGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200000; trial++ {
		a, b := kernelBox(r), kernelBox(r)
		if got, want := a.Empty(), emptyGeneric(a); got != want {
			t.Fatalf("%#v.Empty() = %v, want %v", a, got, want)
		}
		if got, want := a.Volume(), volumeGeneric(a); got != want {
			t.Fatalf("%#v.Volume() = %d, want %d", a, got, want)
		}
		if got, want := a.Intersect(b), intersectGeneric(a, b); got != want {
			t.Fatalf("%#v.Intersect(%#v) = %#v, want %#v", a, b, got, want)
		}
		if got, want := a.Intersects(b), intersectsGeneric(a, b); got != want {
			t.Fatalf("%#v.Intersects(%#v) = %v, want %v", a, b, got, want)
		}
		if got, want := overlap(&a, &b), volumeGeneric(intersectGeneric(a, b)); got != want {
			t.Fatalf("overlap(%#v, %#v) = %d, want %d", a, b, got, want)
		}
		if got, want := a.Union(b), unionGeneric(a, b); got != want {
			t.Fatalf("%#v.Union(%#v) = %#v, want %#v", a, b, got, want)
		}
		want, wantOK := tryMergeGeneric(a, b)
		got, b0 := a, b
		gotOK := tryMerge(&got, &b)
		if planarMiss(&a, &b) && wantOK {
			t.Fatalf("planarMiss(%#v, %#v) is true, but the pair merges into %#v", a, b, want)
		}
		if !wantOK {
			want = a // a miss leaves the receiver alone
		}
		if gotOK != wantOK || got != want || b != b0 {
			t.Fatalf("tryMerge(%#v, %#v) = %#v, %v (b now %#v), want %#v, %v", a, b0, got, gotOK, b, want, wantOK)
		}
	}
}

// TestZeroBoxStaysEmpty pins Box{} — Dim 0, every corner 0, the identity
// of Union — under the planar kernels, at what the loops over its zero
// active dimensions answered: empty with no cells, meeting nothing, and
// left as it is by Refine, Coarsen and Grow.
func TestZeroBoxStaysEmpty(t *testing.T) {
	var z Box
	boxes := []Box{z, NewBox2(-3, -2, 5, 4), NewBox2(0, 0, 1, 1), NewBox2(2, 2, 2, 5)}
	for _, b := range boxes {
		if !z.Empty() || z.Volume() != 0 || z.Surface() != 0 || z.Volume() != volumeGeneric(z) {
			t.Fatalf("Box{}: Empty %v, Volume %d, Surface %d", z.Empty(), z.Volume(), z.Surface())
		}
		if z.Intersects(b) || b.Intersects(z) || overlap(&z, &b) != 0 || overlap(&b, &z) != 0 {
			t.Errorf("Box{} meets %v", b)
		}
		if got, want := z.Union(b), unionGeneric(z, b); got != b || got != want {
			t.Errorf("Box{}.Union(%v) = %#v", b, got)
		}
		if got, want := b.Union(z), unionGeneric(b, z); got != want || !b.Empty() && got != b {
			t.Errorf("%v.Union(Box{}) = %#v, want %#v", b, got, want)
		}
		if got, want := z.Intersect(b), intersectGeneric(z, b); got != want || !got.Empty() || got.Volume() != 0 {
			t.Errorf("Box{}.Intersect(%v) = %#v, want %#v", b, got, want)
		}
		if got := b.Intersect(z); !got.Empty() || got.Volume() != 0 {
			t.Errorf("%v.Intersect(Box{}) = %#v, want empty", b, got)
		}
	}
	for _, n := range []int{1, 2, 4} {
		if z.Refine(n) != z || z.Coarsen(n) != z || z.Grow(n) != z || z.Grow(-n) != z {
			t.Errorf("Refine, Coarsen or Grow by %d moved Box{}: %#v %#v %#v", n, z.Refine(n), z.Coarsen(n), z.Grow(n))
		}
	}
}

// TestOverlapExtremeCorners pins the kernel where extents do not fit an
// int: it compares corners and never subtracts across a gap, so it
// answers what Intersect(..).Volume() answers.
func TestOverlapExtremeCorners(t *testing.T) {
	const big = 1 << 62
	boxes := []Box{
		NewBox2(-big, -big, big, big),
		NewBox2(-big, 0, -big+3, 2),
		NewBox2(big-5, big-5, big, big),
		NewBox2(0, 0, 4, 4),
		NewBox2(big, big, -big, -big),
	}
	for _, a := range boxes {
		for _, b := range boxes {
			if got, want := overlap(&a, &b), volumeGeneric(intersectGeneric(a, b)); got != want {
				t.Errorf("overlap(%v, %v) = %d, want %d", a, b, got, want)
			}
			if got, want := a.Intersects(b), intersectsGeneric(a, b); got != want {
				t.Errorf("%v.Intersects(%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}
