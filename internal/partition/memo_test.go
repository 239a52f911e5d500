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
	procChains.bands.SetOnFlight(func(_ bandKey, leader bool) {
		if leader && before < 0 {
			before = ctx.polls
		}
	})
	_, err := nf.Partition(ctx, h, np)
	procChains.bands.SetOnFlight(nil)
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
	if n := procChains.bands.Len(); n != 0 {
		t.Fatalf("band cache holds %d entries after a cancelled band build", n)
	}
	if n := procChains.bases.Len(); n != 1 {
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

// chainCounts reads CacheStats' lookup counters.
func chainCounts() (hits, misses, shared uint64) {
	hits, misses, shared, _, _ = CacheStats()
	return
}

// TestChainScopes: WithChainScope opens a store only where the context
// carries none; calls under a scope leave the process store untouched,
// and CacheStats still counts their lookups. Concurrent scopes, each
// fanned out over several processor counts at once, own separate
// stores: each builds every artifact exactly once (its own calls share
// it), their answers equal the process store's, and every lookup is
// counted once, whatever store answered it.
func TestChainScopes(t *testing.T) {
	h := testHierarchy()
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(28, 28, 48, 48)}})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := WithChainScope(context.Background())
	if WithChainScope(ctx) != ctx {
		t.Fatal("WithChainScope opened a second store under a scope")
	}
	if storeOf(ctx) == procChains || storeOf(context.Background()) != procChains {
		t.Fatal("storeOf does not tell a scope from the process store")
	}

	nps := []int{3, 8, 16, 40}
	flushChainCaches()
	want := map[int]*Assignment{}
	for _, np := range nps {
		want[np] = mustPartition(t, NewNatureFable(), h, np)
	}
	h0, m0, s0 := chainCounts()
	one := WithChainScope(context.Background())
	if _, err := NewNatureFable().Partition(one, h, nps[0]); err != nil {
		t.Fatal(err)
	}
	h1, m1, s1 := chainCounts()
	lookups, builds := (h1+m1+s1)-(h0+m0+s0), m1-m0
	if builds == 0 || builds != lookups {
		t.Fatalf("a cold scope made %d lookups and %d builds, want as many builds as lookups", lookups, builds)
	}
	if n := storeOf(one).bases.Len() + storeOf(one).bands.Len(); uint64(n) != builds {
		t.Fatalf("the scope holds %d artifacts after %d builds", n, builds)
	}
	flushChainCaches()

	const scopes = 4
	stores := make([]*chainStore, scopes)
	var wg sync.WaitGroup
	for s := range scopes {
		ctx := WithChainScope(context.Background())
		stores[s] = storeOf(ctx)
		for _, np := range nps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := NewNatureFable().Partition(ctx, h, np)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(a, want[np]) {
					t.Errorf("scope %d, np=%d: diverged from the process store's answer", s, np)
				}
			}()
		}
	}
	wg.Wait()
	h2, m2, s2 := chainCounts()
	if got, want := m2-m1, scopes*builds; got != want {
		t.Errorf("%d scopes built %d artifacts, want %d: one build per artifact a scope", scopes, got, want)
	}
	if got, want := (h2+m2+s2)-(h1+m1+s1), uint64(scopes*len(nps))*lookups; got != want {
		t.Errorf("CacheStats counted %d lookups, want %d", got, want)
	}
	for s, st := range stores {
		if n := st.bases.Len() + st.bands.Len(); uint64(n) != builds {
			t.Errorf("scope %d holds %d artifacts, want %d", s, n, builds)
		}
	}
	if _, _, _, entries, _ := CacheStats(); entries != 0 {
		t.Errorf("scoped calls left %d entries in the process store", entries)
	}
}
