package geom

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// randomDisjointList builds a disjoint list by carving random boxes out of
// a domain and keeping the non-overlapping parts.
func randomDisjointList(r *rand.Rand, n int) BoxList {
	var out BoxList
	for len(out) < n {
		c := randomBox(r)
		ok := true
		for _, b := range out {
			if b.Intersects(c) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

func TestBoxListTotals(t *testing.T) {
	bl := BoxList{NewBox2(0, 0, 2, 2), NewBox2(4, 4, 6, 8)}
	if bl.TotalVolume() != 4+8 {
		t.Errorf("TotalVolume = %d", bl.TotalVolume())
	}
	if bl.TotalSurface() != 8+12 {
		t.Errorf("TotalSurface = %d", bl.TotalSurface())
	}
}

func TestBoxListDisjoint(t *testing.T) {
	if !(BoxList{NewBox2(0, 0, 2, 2), NewBox2(2, 0, 4, 2)}).Disjoint() {
		t.Error("adjacent boxes reported overlapping")
	}
	if (BoxList{NewBox2(0, 0, 3, 3), NewBox2(2, 2, 4, 4)}).Disjoint() {
		t.Error("overlapping boxes reported disjoint")
	}
}

func TestBoxListSubtract(t *testing.T) {
	domain := BoxList{NewBox2(0, 0, 10, 10)}
	holes := BoxList{NewBox2(1, 1, 3, 3), NewBox2(5, 5, 8, 9)}
	rem := domain
	for _, h := range holes {
		rem = rem.SubtractBox(h)
	}
	want := domain.TotalVolume() - holes.TotalVolume()
	if rem.TotalVolume() != want {
		t.Errorf("Subtract volume = %d, want %d", rem.TotalVolume(), want)
	}
	if !rem.Disjoint() {
		t.Error("Subtract result not disjoint")
	}
	for _, h := range holes {
		for _, b := range rem {
			if b.Intersects(h) {
				t.Errorf("remainder %v intersects hole %v", b, h)
			}
		}
	}
}

// TestBoxListCoversBox checks coversBox, the subtraction-list oracle
// the cover sweep's tests hold NestedIn and FirstUnnested to.
func TestBoxListCoversBox(t *testing.T) {
	bl := BoxList{NewBox2(0, 0, 4, 8), NewBox2(4, 0, 8, 8)}
	if !coversBox(bl, NewBox2(1, 1, 7, 7)) {
		t.Error("union should cover interior box")
	}
	if coversBox(bl, NewBox2(6, 6, 10, 10)) {
		t.Error("union should not cover protruding box")
	}
}

// kernelVolumes returns the overlap volume of a and b as the two
// kernels that replaced a list-against-list call compute it: the sum
// of one OverlapScan's pairs under a single key, and the sum of a
// BoxIndex's QueryVolume over a's boxes against b's index.
func kernelVolumes(a, b BoxList) (scan, indexed int64) {
	s := NewOverlapScan()
	defer s.Release()
	for k, box := range a {
		s.AddA(0, box, k)
	}
	for k, box := range b {
		s.AddB(0, box, k)
	}
	s.Each(context.Background(), func(_, _, _ int, v int64) { scan += v })
	ix := NewBoxIndex(b)
	for _, box := range a {
		indexed += ix.QueryVolume(box)
	}
	return scan, indexed
}

// requireVolume holds both kernels and OverlapVolumeNaive on (a, b) to
// want.
func requireVolume(t *testing.T, where string, a, b BoxList, want int64) {
	t.Helper()
	scan, indexed := kernelVolumes(a, b)
	if naive := OverlapVolumeNaive(a, b); scan != want || indexed != want || naive != want {
		t.Fatalf("%s: scan=%d indexed=%d naive=%d, want %d\na=%v\nb=%v", where, scan, indexed, naive, want, a, b)
	}
}

func TestOverlapVolumeMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		a := randomDisjointList(r, 1+r.Intn(12))
		b := randomDisjointList(r, 1+r.Intn(12))
		requireVolume(t, fmt.Sprintf("trial %d", trial), a, b, OverlapVolumeNaive(a, b))
	}
}

func TestOverlapVolumeSelf(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	bl := randomDisjointList(r, 10)
	requireVolume(t, "self-overlap", bl, bl, bl.TotalVolume())
}

func TestOverlapVolumeEdgeCases(t *testing.T) {
	requireVolume(t, "empty list", nil, BoxList{NewBox2(0, 0, 2, 2)}, 0)
	// Face-adjacent boxes share no cells.
	requireVolume(t, "face-adjacent", BoxList{NewBox2(0, 0, 4, 4)}, BoxList{NewBox2(4, 0, 8, 4)}, 0)
}

// simplify is SimplifyContext under a context that is never done.
func simplify(bl BoxList) BoxList {
	out, _ := bl.SimplifyContext(context.Background())
	return out
}

func TestSimplifyMergesNeighbours(t *testing.T) {
	bl := BoxList{NewBox2(0, 0, 4, 4), NewBox2(4, 0, 8, 4), NewBox2(0, 4, 8, 8)}
	s := simplify(bl)
	if len(s) != 1 || s[0] != NewBox2(0, 0, 8, 8) {
		t.Errorf("Simplify = %v, want single [0:8,0:8]", s)
	}
	if s.TotalVolume() != bl.TotalVolume() {
		t.Error("Simplify changed covered volume")
	}
}

func TestSimplifyPreservesRegion(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		bl := randomDisjointList(r, 8)
		s := simplify(bl)
		if s.TotalVolume() != bl.TotalVolume() {
			t.Fatalf("Simplify changed volume: %d -> %d", bl.TotalVolume(), s.TotalVolume())
		}
		if !s.Disjoint() {
			t.Fatal("Simplify result not disjoint")
		}
	}
}

// simplifyNaive is the restart-from-the-top Simplify this package shipped
// before the resuming scan: merge the lexicographically first mergeable
// pair, then rescan from (0, 1). It defines the merge order Simplify
// must reproduce.
func simplifyNaive(bl BoxList) BoxList {
	out := bl.Clone()
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if m, ok := tryMergeGeneric(out[i], out[j]); ok {
					out[i] = m
					out = append(out[:j], out[j+1:]...)
					merged = true
					break outer
				}
			}
		}
	}
	return out
}

// subdivide appends a random recursive subdivision of b along its
// first dims dimensions, stopping at unit extent or at random.
func subdivide(r *rand.Rand, b Box, dims int, out BoxList) BoxList {
	d := r.Intn(dims)
	if b.Size(d) < 2 || r.Intn(5) == 0 {
		return append(out, b)
	}
	lo, hi := b.ChopDim(d, b.Lo[d]+1+r.Intn(b.Size(d)-1))
	return subdivide(r, hi, dims, subdivide(r, lo, dims, out))
}

// randomFragments is the shape Simplify is fed in production: a box cut
// into pieces with some dropped, in arbitrary order, with the
// occasional duplicate.
func randomFragments(r *rand.Rand, domain Box, dims int) BoxList {
	var bl BoxList
	for _, b := range subdivide(r, domain, dims, nil) {
		if r.Intn(6) > 0 {
			bl = append(bl, b)
		}
	}
	for k := r.Intn(3); k > 0 && len(bl) > 0; k-- {
		bl = append(bl, bl[r.Intn(len(bl))])
	}
	r.Shuffle(len(bl), func(i, j int) { bl[i], bl[j] = bl[j], bl[i] })
	return bl
}

func checkSimplifyMatchesNaive(t *testing.T, bl BoxList) {
	t.Helper()
	in := bl.Clone()
	if got, want := simplify(bl), simplifyNaive(bl); !slices.Equal(got, want) {
		t.Fatalf("Simplify(%v)\n got %v\nwant %v", in, got, want)
	}
	if !slices.Equal(bl, in) {
		t.Fatalf("Simplify modified its receiver: %v, was %v", bl, in)
	}
}

func TestSimplifyMatchesNaive(t *testing.T) {
	checkSimplifyMatchesNaive(t, nil)
	checkSimplifyMatchesNaive(t, BoxList{})
	checkSimplifyMatchesNaive(t, BoxList{NewBox2(3, -2, 5, 7)})
	b := NewBox2(0, 0, 2, 2)
	checkSimplifyMatchesNaive(t, BoxList{b, b, b})
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(12)
		checkSimplifyMatchesNaive(t, randomFragments(r, NewBox2(-3, 5, -3+n, 5+n), 2))
	}
	// Arbitrary overlapping boxes: nothing in Simplify assumes a
	// disjoint list.
	for trial := 0; trial < 300; trial++ {
		checkSimplifyMatchesNaive(t, randomBoxList(r, 1+r.Intn(30)))
	}
	// Every Dim a decoder can produce, zero and inverted extents, on a
	// lattice small enough that most lists merge several times.
	for trial := 0; trial < 3000; trial++ {
		bl := make(BoxList, 1+r.Intn(12))
		for i := range bl {
			bl[i] = kernelBox(r)
		}
		checkSimplifyMatchesNaive(t, bl)
	}
}

// TestSimplifyContextStopsWhenDone: a list long enough to be polled
// stops with the context's own error, so a deadline is not reported as
// a cancellation, and a live context yields the naive merge's result.
func TestSimplifyContextStopsWhenDone(t *testing.T) {
	bl := make(BoxList, 1024) // a diagonal: no pair merges, 64 scans a poll
	for i := range bl {
		bl[i] = NewBox2(i, i, i+1, i+1)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, ctx := range []context.Context{cancelled, expired} {
		if got, err := bl.SimplifyContext(ctx); got != nil || !errors.Is(err, ctx.Err()) {
			t.Fatalf("SimplifyContext under %v = (%d boxes, %v), want (nil, %v)", ctx.Err(), len(got), err, ctx.Err())
		}
	}
	if got, err := bl.SimplifyContext(context.Background()); err != nil || !slices.Equal(got, simplifyNaive(bl)) {
		t.Fatalf("SimplifyContext under a live context = (%d boxes, %v), want the naive merge's %d", len(got), err, len(bl))
	}
}

func TestRefineCoarsenList(t *testing.T) {
	bl := BoxList{NewBox2(0, 0, 2, 2), NewBox2(3, 3, 5, 4)}
	if got := bl.Refine(2).TotalVolume(); got != 4*bl.TotalVolume() {
		t.Errorf("Refine volume = %d", got)
	}
	rt := bl.Refine(2).Coarsen(2)
	for i := range bl {
		if rt[i] != bl[i] {
			t.Errorf("round trip box %d = %v, want %v", i, rt[i], bl[i])
		}
	}
}

func TestSortByLoDeterministic(t *testing.T) {
	bl := BoxList{NewBox2(5, 0, 6, 1), NewBox2(0, 0, 1, 1), NewBox2(0, 3, 1, 4)}
	bl.SortByLo()
	if bl[0] != NewBox2(0, 0, 1, 1) || bl[1] != NewBox2(5, 0, 6, 1) || bl[2] != NewBox2(0, 3, 1, 4) {
		t.Errorf("SortByLo order = %v", bl)
	}
}

// BenchmarkSimplifyFragments feeds Simplify what partition.mergeFragments
// does for one owner: a 64x64 region as 2x2 unit boxes in a
// curve-like order (4x4 tiles visited in shuffled order, boxes
// shuffled within each tile).
func BenchmarkSimplifyFragments(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	var tiles []BoxList
	for ty := 0; ty < 64; ty += 8 {
		for tx := 0; tx < 64; tx += 8 {
			var tile BoxList
			for y := ty; y < ty+8; y += 2 {
				for x := tx; x < tx+8; x += 2 {
					tile = append(tile, NewBox2(x, y, x+2, y+2))
				}
			}
			r.Shuffle(len(tile), func(i, j int) { tile[i], tile[j] = tile[j], tile[i] })
			tiles = append(tiles, tile)
		}
	}
	r.Shuffle(len(tiles), func(i, j int) { tiles[i], tiles[j] = tiles[j], tiles[i] })
	var frags BoxList
	for _, tile := range tiles {
		frags = append(frags, tile...)
	}
	b.ReportAllocs()
	for b.Loop() {
		if got := simplify(frags); got.TotalVolume() != 64*64 {
			b.Fatalf("Simplify changed the covered volume: %v", got)
		}
	}
}

// mergedAxisReference is MergedAxis' body before it moved to
// slices.SortFunc: the same key through the reflective sort.Slice.
// TestMergedAxisMatchesReference holds MergedAxis to it.
func mergedAxisReference(bl BoxList, d int) BoxList {
	if len(bl) < 2 {
		return bl.Clone()
	}
	out := bl.Clone()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for e := 0; e < MaxDim; e++ {
			if e == d {
				continue
			}
			if a.Lo[e] != b.Lo[e] {
				return a.Lo[e] < b.Lo[e]
			}
			if a.Hi[e] != b.Hi[e] {
				return a.Hi[e] < b.Hi[e]
			}
		}
		return a.Lo[d] < b.Lo[d]
	})
	merged := out[:1]
	for _, b := range out[1:] {
		last := &merged[len(merged)-1]
		same := true
		for e := 0; e < MaxDim; e++ {
			if e != d && (last.Lo[e] != b.Lo[e] || last.Hi[e] != b.Hi[e]) {
				same = false
				break
			}
		}
		if same && last.Hi[d] == b.Lo[d] {
			last.Hi[d] = b.Hi[d]
		} else {
			merged = append(merged, b)
		}
	}
	return merged
}

// TestMergedAxisMatchesReference holds MergedAxis to its sort.Slice
// reference, box for box and along both axes, on random disjoint lists:
// tilings of a box with pieces dropped (many neighbours to merge) and
// scattered boxes (few), in a random order.
func TestMergedAxisMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		var bl BoxList
		if trial%2 == 0 {
			for _, b := range subdivide(r, NewBox2(-20, -10, 20+r.Intn(40), 10+r.Intn(40)), 2, nil) {
				if r.Intn(5) > 0 {
					bl = append(bl, b)
				}
			}
		} else {
			bl = randomDisjointList(r, 1+r.Intn(40))
		}
		r.Shuffle(len(bl), func(i, j int) { bl[i], bl[j] = bl[j], bl[i] })
		for d := 0; d < 2; d++ {
			if got, want := bl.MergedAxis(d), mergedAxisReference(bl, d); !slices.Equal(got, want) {
				t.Fatalf("trial %d axis %d on %v:\n got %v\nwant %v", trial, d, bl, got, want)
			}
		}
	}
}

// compactReference is Compact's body before planar lists were merged
// as packed rectangles: MergedAxis along x then y, up to four passes.
// TestCompactMatchesReference holds Compact to it.
func compactReference(bl BoxList) BoxList {
	cur := bl
	for pass := 0; pass < 4; pass++ {
		next := cur.MergedAxis(0).MergedAxis(1)
		if len(next) == len(cur) {
			return next
		}
		cur = next
	}
	return cur
}

// TestCompactMatchesReference holds Compact to its reference, box for
// box and in order, on random disjoint lists in a random order: tilings
// of a box with pieces dropped (neighbours that merge over several
// passes), the same far from the origin, scattered boxes, and lists
// whose bounds span 2^16 cells or more, which take the reference's own
// path.
func TestCompactMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 600; trial++ {
		var bl BoxList
		packed := true
		switch trial % 4 {
		case 0, 1:
			for _, b := range subdivide(r, NewBox2(-30, -20, 10+r.Intn(60), 10+r.Intn(60)), 2, nil) {
				if r.Intn(6) > 0 {
					bl = append(bl, b)
				}
			}
			if trial%4 == 1 {
				off := IV2(1<<40+r.Intn(100), -(1 << 35))
				for i, b := range bl {
					bl[i] = NewBox2(b.Lo[0]+off[0], b.Lo[1]+off[1], b.Hi[0]+off[0], b.Hi[1]+off[1])
				}
			}
		case 2:
			bl = randomDisjointList(r, 1+r.Intn(40))
		case 3:
			bl = subdivide(r, NewBox2(0, 0, 16, 16), 2, nil)
			bl = append(bl, NewBox2(1<<16, 0, 1<<16+2, 2), NewBox2(1<<16+2, 0, 1<<16+4, 2))
			packed = false
		}
		r.Shuffle(len(bl), func(i, j int) { bl[i], bl[j] = bl[j], bl[i] })
		if _, _, ok := packedRects(bl); ok != (packed && len(bl) > 0) {
			t.Fatalf("trial %d: packedRects ok = %v, want %v", trial, ok, packed)
		}
		in := slices.Clone(bl)
		if got, want := bl.Compact(), compactReference(bl); !slices.Equal(got, want) {
			t.Fatalf("trial %d on %v:\n got %v\nwant %v", trial, bl, got, want)
		}
		if !slices.Equal(bl, in) {
			t.Fatalf("trial %d: Compact changed its input", trial)
		}
	}
}
