package geom

import (
	"math/rand"
	"testing"
)

// disjointPairwise is the body Disjoint had before the cover sweep: every
// pair of boxes compared. It is the oracle the sweep is held to.
func disjointPairwise(bl BoxList) bool {
	for i := range bl {
		for j := i + 1; j < len(bl); j++ {
			if bl[i].Intersects(bl[j]) {
				return false
			}
		}
	}
	return true
}

// coversBox is the subtraction-list body BoxList.CoversBox had: whether
// the union of bl covers b, by subtracting every member from b.
func coversBox(bl BoxList, b Box) bool {
	rem := BoxList{b}
	for _, m := range bl {
		rem = rem.SubtractBox(m)
		if len(rem) == 0 {
			return true
		}
	}
	return len(rem) == 0 || rem.TotalVolume() == 0
}

// coverFaults damage a list of pieces the way a broken cover is broken.
var coverFaults = []func(r *rand.Rand, bl BoxList) BoxList{
	// a duplicate
	func(r *rand.Rand, bl BoxList) BoxList { return append(bl, bl[r.Intn(len(bl))]) },
	// a random box, which may overlap or stick out
	func(r *rand.Rand, bl BoxList) BoxList { return append(bl, randomBox(r)) },
	// one piece grown into its neighbours
	func(r *rand.Rand, bl BoxList) BoxList {
		i := r.Intn(len(bl))
		bl[i] = bl[i].Grow(1)
		return bl
	},
	// one piece shifted a cell, or far away (past a 2^32 span)
	func(r *rand.Rand, bl BoxList) BoxList {
		i, d, by := r.Intn(len(bl)), r.Intn(2), []int{-1, 1, 1 << 40}[r.Intn(3)]
		bl[i].Lo[d] += by
		bl[i].Hi[d] += by
		return bl
	},
	// one piece inverted, or of zero extent: no cells either way
	func(r *rand.Rand, bl BoxList) BoxList {
		i := r.Intn(len(bl))
		if r.Intn(2) == 0 {
			bl[i].Lo, bl[i].Hi = bl[i].Hi, bl[i].Lo
		} else {
			bl[i].Hi[0] = bl[i].Lo[0]
		}
		return bl
	},
}

// TestCoverSweepMatchesPairwise holds Disjoint, NestedIn and
// FirstUnnested to the pairwise and subtraction-list oracles on pieces
// of a refined disjoint parent, intact or damaged.
func TestCoverSweepMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	seen := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		ratio := 1 + r.Intn(3)
		parent := randomDisjointList(r, 1+r.Intn(6))
		if r.Intn(4) == 0 {
			parent = append(parent, NewBox2(5, 5, 5, 9))
		}
		var bl BoxList
		for _, p := range parent {
			if r.Intn(3) > 0 {
				bl = subdivide(r, p.Refine(ratio), 2, bl)
			}
		}
		if len(bl) > 0 {
			for n := r.Intn(3); n > 0; n-- {
				bl = coverFaults[r.Intn(len(coverFaults))](r, bl)
			}
		}
		r.Shuffle(len(bl), func(i, j int) { bl[i], bl[j] = bl[j], bl[i] })

		disjoint := disjointPairwise(bl)
		if got := bl.Disjoint(); got != disjoint {
			t.Fatalf("trial %d: Disjoint = %v, pairwise %v on %v", trial, got, disjoint, bl)
		}
		refined := parent.Refine(ratio)
		first := len(bl)
		for i, b := range bl {
			if !coversBox(refined, b) {
				first = i
				break
			}
		}
		if got, want := bl.NestedIn(parent, ratio), disjoint && first == len(bl); got != want {
			t.Fatalf("trial %d: NestedIn = %v, want %v: %v in %v at ratio %d", trial, got, want, bl, parent, ratio)
		}
		switch {
		case !disjoint:
			seen["overlapping"]++
			continue
		case first < len(bl):
			seen["outside"]++
		default:
			seen["nested"]++
		}
		if got := bl.FirstUnnested(parent, ratio); got != first {
			t.Fatalf("trial %d: FirstUnnested = %d, want %d: %v in %v at ratio %d", trial, got, first, bl, parent, ratio)
		}
	}
	for _, k := range []string{"overlapping", "outside", "nested"} {
		if seen[k] < 200 {
			t.Errorf("only %d trials came out %s: %v", seen[k], k, seen)
		}
	}
}
