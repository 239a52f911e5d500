package geom

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomBoxList builds a list of n random (possibly overlapping, possibly
// empty-adjacent) boxes; unlike randomDisjointList it exercises the index
// on overlapping inputs too.
func randomBoxList(r *rand.Rand, n int) BoxList {
	out := make(BoxList, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, randomBox(r))
	}
	return out
}

// bruteQuery is the all-pairs oracle for BoxIndex.Query.
func bruteQuery(bl BoxList, q Box) []int {
	var out []int
	for i, b := range bl {
		if b.Intersects(q) {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBoxIndexQueryMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		bl := randomBoxList(r, 1+r.Intn(60))
		ix := NewBoxIndex(bl)
		for q := 0; q < 20; q++ {
			query := randomBox(r)
			got := ix.Query(query)
			want := bruteQuery(bl, query)
			if !equalInts(got, want) {
				t.Fatalf("trial %d query %v: index=%v brute=%v\nboxes=%v", trial, query, got, want, bl)
			}
		}
	}
}

func TestBoxIndexQueryVolumeMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 80; trial++ {
		bl := randomBoxList(r, 1+r.Intn(60))
		ix := NewBoxIndex(bl)
		for q := 0; q < 20; q++ {
			query := randomBox(r)
			got := ix.QueryVolume(query)
			want := OverlapVolumeNaive(bl, BoxList{query})
			if got != want {
				t.Fatalf("trial %d query %v: index=%d brute=%d", trial, query, got, want)
			}
		}
	}
}

func TestBoxIndexQuerySelfAndMembers(t *testing.T) {
	// Every indexed box must find at least itself when queried with its
	// own extent, and the result must be ascending.
	r := rand.New(rand.NewSource(13))
	bl := randomDisjointList(r, 25)
	ix := NewBoxIndex(bl)
	for i, b := range bl {
		got := ix.Query(b)
		if !equalInts(got, []int{i}) {
			t.Fatalf("disjoint member %d: Query(self) = %v", i, got)
		}
	}
}

// TestBoxIndexNeighborsMatchesBrute checks halo adjacency the way the
// driver's ghost fill asks for it: each member's grown extent as the
// query, the member itself dropped from the answer.
func TestBoxIndexNeighborsMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		bl := randomDisjointList(r, 2+r.Intn(20))
		ix := NewBoxIndex(bl)
		for _, grow := range []int{0, 1, 2} {
			for i, b := range bl {
				var got, want []int
				for _, j := range ix.Query(b.Grow(grow)) {
					if j != i {
						got = append(got, j)
					}
				}
				for j, o := range bl {
					if j != i && o.Intersects(b.Grow(grow)) {
						want = append(want, j)
					}
				}
				if !equalInts(got, want) {
					t.Fatalf("trial %d grow %d box %d: index=%v brute=%v", trial, grow, i, got, want)
				}
			}
		}
	}
}

func TestBoxIndexEmptyAndDegenerate(t *testing.T) {
	if got := NewBoxIndex(nil).Query(NewBox2(0, 0, 4, 4)); got != nil {
		t.Errorf("empty index query = %v", got)
	}
	// Lists containing empty boxes: the empties keep their index slot but
	// never match.
	bl := BoxList{NewBox2(0, 0, 2, 2), NewBox2(5, 5, 5, 7), NewBox2(1, 1, 4, 4)}
	ix := NewBoxIndex(bl)
	if got, want := ix.Query(NewBox2(0, 0, 10, 10)), []int{0, 2}; !equalInts(got, want) {
		t.Errorf("query over list with empty member = %v, want %v", got, want)
	}
	if ix.QueryVolume(NewBox2(0, 0, 10, 10)) != 4+9 {
		t.Errorf("QueryVolume = %d, want 13", ix.QueryVolume(NewBox2(0, 0, 10, 10)))
	}
	if got := ix.Query(Box{Dim: 2}); got != nil {
		t.Errorf("empty query box matched %v", got)
	}
}

func TestBoxIndexOversizedBoxes(t *testing.T) {
	// A whole-domain box among many small ones lands in the overflow list
	// and must still be returned by every query it intersects.
	r := rand.New(rand.NewSource(15))
	bl := randomBoxList(r, 40)
	bl = append(BoxList{NewBox2(-100, -100, 200, 200)}, bl...)
	ix := NewBoxIndex(bl)
	for q := 0; q < 30; q++ {
		query := randomBox(r)
		if !equalInts(ix.Query(query), bruteQuery(bl, query)) {
			t.Fatalf("oversized query %v mismatch", query)
		}
	}
}

// TestOverlapVolumeIndexedMatchesNaiveLarge holds both kernels to the
// oracle on lists large enough that the index bins most boxes.
func TestOverlapVolumeIndexedMatchesNaiveLarge(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 10; trial++ {
		a := randomDisjointList(r, 20+r.Intn(20))
		b := randomDisjointList(r, 20+r.Intn(20))
		requireVolume(t, fmt.Sprintf("trial %d", trial), a, b, OverlapVolumeNaive(a, b))
	}
}

// BenchmarkBoxIndexQuery measures the binned query path on a list large
// enough that most boxes land in bins and not the overflow list.
func BenchmarkBoxIndexQuery(b *testing.B) {
	r := rand.New(rand.NewSource(24))
	ix := NewBoxIndex(randomBoxList(r, 2000))
	queries := make([]Box, 256)
	for i := range queries {
		queries[i] = randomBox(r)
	}
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = ix.AppendQuery(buf[:0], queries[i%len(queries)])
	}
}
