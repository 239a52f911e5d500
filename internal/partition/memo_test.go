package partition

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/sfc"
)

// memoPartitioners enumerates every partitioner family across curves
// and configurations — the sweep of the memoized-vs-fresh property.
func memoPartitioners() map[string]func() Partitioner {
	return map[string]func() Partitioner{
		"domain-hilbert": func() Partitioner { return &DomainSFC{Curve: sfc.Hilbert, UnitSize: 2} },
		"domain-morton":  func() Partitioner { return &DomainSFC{Curve: sfc.Morton, UnitSize: 4} },
		"domain-rowmaj":  func() Partitioner { return &DomainSFC{Curve: sfc.RowMajor, UnitSize: 1} },
		"patch":          func() Partitioner { return NewPatchBased() },
		"hybrid-default": func() Partitioner { return NewNatureFable() },
		"hybrid-whole": func() Partitioner {
			return &NatureFable{Curve: sfc.Morton, AtomicUnit: 8, Groups: 2, FractionalBlocking: false}
		},
		"hybrid-u1": func() Partitioner {
			return &NatureFable{Curve: sfc.Hilbert, AtomicUnit: 1, Groups: 4, FractionalBlocking: true}
		},
		"postmap": func() Partitioner { return NewPostMapped(NewDomainSFC()) },
	}
}

// memoHierarchies returns structurally distinct hierarchies: deep
// refinement, flat base-only, and a shifted variant (distinct
// signature, same shape class).
func memoHierarchies() map[string]*grid.Hierarchy {
	deep := testHierarchy()
	flat := grid.NewHierarchy(geom.NewBox2(0, 0, 24, 24), 2)
	shifted := grid.NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
	shifted.Levels = append(shifted.Levels, grid.Level{Boxes: geom.BoxList{
		geom.NewBox2(8, 8, 24, 24),
	}})
	return map[string]*grid.Hierarchy{"deep": deep, "flat": flat, "shifted": shifted}
}

// TestMemoizedEqualsFresh is the memoization-soundness property test:
// for every partitioner family, curve, and processor count, a Partition
// served from warm caches must be deep-equal to a cold-cache run. The
// warm run is the second of two consecutive calls; the fresh reference
// recomputes after a full cache flush.
func TestMemoizedEqualsFresh(t *testing.T) {
	ctx := context.Background()
	for hname, h := range memoHierarchies() {
		for pname, mk := range memoPartitioners() {
			for _, np := range []int{1, 3, 16} {
				flushChainCaches()
				cold, err := mk().Partition(ctx, h, np)
				if err != nil {
					t.Fatalf("%s/%s/np=%d cold: %v", hname, pname, np, err)
				}
				warm, err := mk().Partition(ctx, h, np)
				if err != nil {
					t.Fatalf("%s/%s/np=%d warm: %v", hname, pname, np, err)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("%s/%s/np=%d: warm result diverged from cold", hname, pname, np)
				}
				flushChainCaches()
				fresh, err := mk().Partition(ctx, h, np)
				if err != nil {
					t.Fatalf("%s/%s/np=%d fresh: %v", hname, pname, np, err)
				}
				if !reflect.DeepEqual(cold, fresh) {
					t.Errorf("%s/%s/np=%d: fresh recomputation diverged", hname, pname, np)
				}
				if err := warm.Validate(h); err != nil {
					t.Errorf("%s/%s/np=%d: %v", hname, pname, np, err)
				}
			}
		}
	}
}

// TestChainSharedAcrossNProcs: the unit chain is nprocs-independent, so
// an nprocs sweep after one cold call must be all cache hits (no new
// misses), while still producing valid distinct assignments.
func TestChainSharedAcrossNProcs(t *testing.T) {
	ctx := context.Background()
	h := testHierarchy()
	flushChainCaches()
	d := &DomainSFC{Curve: sfc.Hilbert, UnitSize: 2}
	if _, err := d.Partition(ctx, h, 2); err != nil {
		t.Fatal(err)
	}
	_, missesBefore, _, _, _ := CacheStats()
	for _, np := range []int{3, 5, 8, 16, 64} {
		a, err := d.Partition(ctx, h, np)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(h); err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
	if _, missesAfter, _, _, _ := CacheStats(); missesAfter != missesBefore {
		t.Fatalf("nprocs sweep recomputed chains: misses %d -> %d", missesBefore, missesAfter)
	}
}

// TestCancelledPartitionNeverPoisonsMemo: a Partition aborted by
// cancellation (the leader of a cold chain build) must leave the memo
// empty of partial artifacts — the next live call recomputes and
// matches a fully fresh run. A NatureFable call cancelled inside a band
// build stores no band.
func TestCancelledPartitionNeverPoisonsMemo(t *testing.T) {
	h := testHierarchy()
	const np = 8
	for pname, mk := range memoPartitioners() {
		flushChainCaches()
		fresh, err := mk().Partition(context.Background(), h, np)
		if err != nil {
			t.Fatal(err)
		}
		// Sweep a few cancellation points across a cold cache; every
		// aborted call must leave the cache unpoisoned.
		total := pollsOf(t, mk, h, np)
		for _, frac := range []int{1, 2, 4} {
			n := total / (frac + 1)
			flushChainCaches()
			if a, err := mk().Partition(newCountdownCtx(n), h, np); err == nil || a != nil {
				t.Fatalf("%s: cancel at poll %d returned (%v, %v)", pname, n, a, err)
			}
			got, err := mk().Partition(context.Background(), h, np)
			if err != nil {
				t.Fatalf("%s: post-cancel recompute: %v", pname, err)
			}
			if !reflect.DeepEqual(fresh, got) {
				t.Errorf("%s: post-cancel result diverged from fresh", pname)
			}
		}
	}

	// NatureFable cancelled at the first poll inside the build of a band
	// past the first: the band cache stays empty (the base, finished
	// before, stays), and the next live call matches a fresh run.
	nf := NewNatureFable()
	flushChainCaches()
	fresh := mustPartition(t, nf, h, np)
	// Count the polls made before the band build starts.
	flushChainCaches()
	ctx := newCountdownCtx(1 << 30)
	before := -1
	nfBands.SetOnFlight(func(_ bandKey, leader bool) {
		if leader && before < 0 {
			before = ctx.polls
		}
	})
	_, err := nf.Partition(ctx, h, np)
	nfBands.SetOnFlight(nil)
	if err != nil {
		t.Fatal(err)
	}
	if before < 0 {
		t.Fatal("no band was built")
	}
	flushChainCaches()
	if a, err := nf.Partition(newCountdownCtx(before), h, np); a != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel at poll %d: (%v, %v), want (nil, Canceled)", before, a, err)
	}
	if n := nfBands.Len(); n != 0 {
		t.Fatalf("band cache holds %d entries after a cancelled band build", n)
	}
	if n := nfBases.Len(); n != 1 {
		t.Fatalf("base cache holds %d entries, want the base built before the band", n)
	}
	if got := mustPartition(t, nf, h, np); !reflect.DeepEqual(fresh, got) {
		t.Error("post-cancel result diverged from fresh")
	}
}

// TestConcurrentPartitionsShareAndAgree: hammering one hierarchy from
// many goroutines (mixed nprocs) must produce assignments deep-equal to
// the sequential result — the shared chain artifacts are read-only.
func TestConcurrentPartitionsShareAndAgree(t *testing.T) {
	ctx := context.Background()
	h := testHierarchy()
	flushChainCaches()
	want := map[int]*Assignment{}
	for _, np := range []int{3, 8, 16} {
		a, err := NewNatureFable().Partition(ctx, h, np)
		if err != nil {
			t.Fatal(err)
		}
		want[np] = a
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			np := []int{3, 8, 16}[g%3]
			a, err := NewNatureFable().Partition(ctx, h, np)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(want[np], a) {
				t.Errorf("goroutine %d (np=%d): diverged from sequential result", g, np)
			}
		}(g)
	}
	wg.Wait()
}

// TestPreCancelledSharedIndex: a pre-cancelled context fails a cold
// DomainSFC call before it builds its chain or any level index, with a
// proper context error.
func TestPreCancelledSharedIndex(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	flushChainCaches()
	if _, err := NewDomainSFC().Partition(ctx, testHierarchy(), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}
