package partition

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
)

// mergeFragmentsReference is mergeFragments as it shipped before the
// counting passes: a stable comparator sort by (level, owner), then the
// same group sweep. It defines the grouping mergeFragments must
// reproduce, element for element.
func mergeFragmentsReference(frags []Fragment) []Fragment {
	slices.SortStableFunc(frags, func(a, b Fragment) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Owner, b.Owner))
	})
	out := frags[:0]
	var scratch geom.BoxList
	for start := 0; start < len(frags); {
		level, owner := frags[start].Level, frags[start].Owner
		end := start + 1
		for end < len(frags) && frags[end].Level == level && frags[end].Owner == owner {
			end++
		}
		scratch = scratch[:0]
		for _, f := range frags[start:end] {
			scratch = append(scratch, f.Box)
		}
		merged, _ := scratch.SimplifyContext(context.Background())
		merged.SortByLo()
		for _, b := range merged {
			out = append(out, Fragment{Level: level, Box: b, Owner: owner})
		}
		start = end
	}
	return out
}

// fragmenter is the half of a partitioner that runs before
// mergeFragments.
type fragmenter interface {
	Partitioner
	fragments(ctx context.Context, h *grid.Hierarchy, nprocs int) (*Assignment, error)
}

// quickHierarchies returns the distinct snapshots of each of the four
// quick traces, in trace order.
func quickHierarchies(tb testing.TB) []*grid.Hierarchy {
	tb.Helper()
	var hs []*grid.Hierarchy
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			tb.Fatal(err)
		}
		seen := map[geom.Signature]bool{}
		for _, snap := range tr.Snapshots {
			if sig := snap.H.Signature(); !seen[sig] {
				seen[sig] = true
				hs = append(hs, snap.H)
			}
		}
	}
	return hs
}

// quickPreMergeLists returns the fragment list every partitioner hands
// mergeFragments for every distinct snapshot of the four quick traces.
func quickPreMergeLists(tb testing.TB, nprocs int) [][]Fragment {
	tb.Helper()
	var lists [][]Fragment
	for _, h := range quickHierarchies(tb) {
		for _, p := range allPartitioners() {
			a, err := p.(fragmenter).fragments(context.Background(), h, nprocs)
			if err != nil {
				tb.Fatal(err)
			}
			lists = append(lists, a.Fragments)
		}
	}
	return lists
}

// mergeUncancelled is mergeFragments under a context that is never
// done, which cannot fail.
func mergeUncancelled(frags []Fragment) []Fragment {
	out, _ := mergeFragments(context.Background(), frags)
	return out
}

func checkMergeMatchesReference(t *testing.T, frags []Fragment) {
	t.Helper()
	want := mergeFragmentsReference(slices.Clone(frags))
	got := mergeUncancelled(slices.Clone(frags))
	if !slices.Equal(got, want) {
		t.Fatalf("mergeFragments differs from the reference on %d fragments: got %d, want %d", len(frags), len(got), len(want))
	}
}

func TestMergeFragmentsMatchesReference(t *testing.T) {
	checkMergeMatchesReference(t, nil)
	r := rand.New(rand.NewSource(31))
	merges := 0
	for _, np := range []int{3, 16} {
		for _, frags := range quickPreMergeLists(t, np) {
			checkMergeMatchesReference(t, frags)
			merges += len(frags) - len(mergeUncancelled(slices.Clone(frags)))
			// The same boxes under shuffled arrival order and redrawn
			// owners and levels: groups of every size, in orders no
			// partitioner produces.
			shuffled := slices.Clone(frags)
			r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			checkMergeMatchesReference(t, shuffled)
			owners, levels := 1+r.Intn(40), 1+r.Intn(6)
			for i := range shuffled {
				shuffled[i].Owner, shuffled[i].Level = r.Intn(owners), r.Intn(levels)
			}
			checkMergeMatchesReference(t, shuffled)
		}
	}
	if merges == 0 {
		t.Fatal("no list merged anything: the comparison never exercised Simplify")
	}
}

// BenchmarkMergeFragments times mergeFragments on what the partitioners
// really hand it: the pre-merge lists of the four quick traces.
func BenchmarkMergeFragments(b *testing.B) {
	lists := quickPreMergeLists(b, 16)
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	work := make([][]Fragment, len(lists))
	b.ReportAllocs()
	for b.Loop() {
		for i, l := range lists {
			work[i] = append(work[i][:0], l...)
			work[i] = mergeUncancelled(work[i])
		}
	}
	b.ReportMetric(float64(len(lists)), "lists/op")
	b.ReportMetric(float64(n)/float64(len(lists)), "frags/list")
}
