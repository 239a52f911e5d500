package geom

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

// scanPair is one visit of OverlapScan.Each.
type scanPair struct {
	key, i, j int
	v         int64
}

// listed is one box handed to the scan, for the brute-force oracle.
type listed struct {
	key, id int
	b       Box
}

// brutePairs is Each's oracle: every (A, B) pair under one key with a
// positive overlap, sorted.
func brutePairs(as, bs []listed) []scanPair {
	var out []scanPair
	for _, a := range as {
		for _, b := range bs {
			if v := a.b.Intersect(b.b).Volume(); a.key == b.key && v > 0 {
				out = append(out, scanPair{a.key, a.id, b.id, v})
			}
		}
	}
	slices.SortFunc(out, comparePairs)
	return out
}

func comparePairs(p, q scanPair) int {
	switch {
	case p.key != q.key:
		return p.key - q.key
	case p.i != q.i:
		return p.i - q.i
	case p.j != q.j:
		return p.j - q.j
	}
	return int(p.v - q.v)
}

// visits runs Each and returns its visits sorted, failing the test if a
// key's pairs come after a larger key's.
func visits(t *testing.T, s *OverlapScan) []scanPair {
	t.Helper()
	var out []scanPair
	s.Each(context.Background(), func(key, i, j int, v int64) {
		if n := len(out); n > 0 && out[n-1].key > key {
			t.Fatalf("key %d visited after key %d", key, out[n-1].key)
		}
		out = append(out, scanPair{key, i, j, v})
	})
	slices.SortFunc(out, comparePairs)
	return out
}

// randomListed draws n boxes under keys 0..2 with ids from 0: mostly
// small boxes in a 40² window, some empty, some wide strips, and, when
// wide is set, boxes at corners far enough apart that the packed sort
// cannot hold them and the comparator sort takes over.
func randomListed(r *rand.Rand, n int, wide bool) []listed {
	out := make([]listed, n)
	for i := range out {
		x, y := r.Intn(40)-4, r.Intn(40)-4
		b := NewBox2(x, y, x+1+r.Intn(8), y+1+r.Intn(8))
		switch r.Intn(10) {
		case 0:
			b.Hi[0] = b.Lo[0]
		case 1:
			b.Lo[0], b.Hi[0] = -4, 40
		case 2:
			if wide {
				b = NewBox2(1<<62-8, y, 1<<62, y+4)
			}
		case 3:
			if wide {
				b = NewBox2(-1<<62, y, -1<<62+8, y+4)
			}
		}
		out[i] = listed{key: r.Intn(3), id: i, b: b}
	}
	return out
}

// TestOverlapScanMatchesBrute holds Each to the all-pairs oracle on
// random keyed lists, through both sorts, and checks that the lists stay
// listed for a second Each and that ResetA keeps list B.
func TestOverlapScanMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for c := range 500 {
		wide := c%4 == 0
		as, bs := randomListed(r, r.Intn(60), wide), randomListed(r, r.Intn(60), wide)
		s := NewOverlapScan()
		for _, a := range as {
			s.AddA(a.key, a.b, a.id)
		}
		for _, b := range bs {
			s.AddB(b.key, b.b, b.id)
		}
		want := brutePairs(as, bs)
		for pass := range 2 {
			if got := visits(t, s); !slices.Equal(got, want) {
				t.Fatalf("case %d pass %d: %d visits, want %d:\n%v\n%v", c, pass, len(got), len(want), got, want)
			}
		}
		as = randomListed(r, r.Intn(60), wide)
		s.ResetA()
		for _, a := range as {
			s.AddA(a.key, a.b, a.id)
		}
		if got, want := visits(t, s), brutePairs(as, bs); !slices.Equal(got, want) {
			t.Fatalf("case %d after ResetA: %d visits, want %d", c, len(got), len(want))
		}
		s.Release()
	}
}

// TestOverlapScanAllocatesNothingWarm: a scan that has run once at a
// size lists and sweeps lists of that size again without allocating.
func TestOverlapScanAllocatesNothingWarm(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	as, bs := randomListed(r, 200, false), randomListed(r, 200, false)
	s := NewOverlapScan()
	defer s.Release()
	run := func() {
		s.Reset()
		for _, a := range as {
			s.AddA(a.key, a.b, a.id)
		}
		for _, b := range bs {
			s.AddB(b.key, b.b, b.id)
		}
		var total int64
		s.Each(context.Background(), func(_, _, _ int, v int64) { total += v })
	}
	run()
	if n := testing.AllocsPerRun(100, run); n > 0 {
		t.Errorf("warm scan allocated %v times a run", n)
	}
}

// TestOverlapScanPollsItsContext: on 300 full-width strips a side every
// strip is a candidate for every other, 90000 pairs. Under a cancelled
// context Each stops at its first poll, after eachPollPairs candidates,
// and answers the context's error; under a live one it visits the 300
// overlapping pairs and answers nil.
func TestOverlapScanPollsItsContext(t *testing.T) {
	s := NewOverlapScan()
	defer s.Release()
	for i := range 300 {
		s.AddA(0, NewBox2(0, i, 64, i+1), i)
		s.AddB(0, NewBox2(0, i, 64, i+1), i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	visited := 0
	if err := s.Each(ctx, func(_, _, _ int, _ int64) { visited++ }); err != context.Canceled {
		t.Fatalf("cancelled Each = %v after %d pairs, want context.Canceled", err, visited)
	}
	if visited >= 300 {
		t.Errorf("cancelled Each visited all %d pairs", visited)
	}
	visited = 0
	if err := s.Each(context.Background(), func(_, _, _ int, _ int64) { visited++ }); err != nil || visited != 300 {
		t.Errorf("Each = %v after %d pairs, want nil after 300", err, visited)
	}
}
