package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

var bg = context.Background()

func mustGet(t *testing.T, c *Cache[string, int], k string, compute func() (int, error)) (int, string) {
	t.Helper()
	v, disp, err := c.GetOrCompute(bg, k, compute)
	if err != nil {
		t.Fatal(err)
	}
	return v, disp
}

func TestGetOrComputeDispositions(t *testing.T) {
	c := New[string, int](4)
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }

	v, disp := mustGet(t, c, "k", compute)
	if v != 42 || disp != Miss || calls != 1 {
		t.Fatalf("first call = (%d, %s, %d calls), want (42, miss, 1)", v, disp, calls)
	}
	v, disp = mustGet(t, c, "k", compute)
	if v != 42 || disp != Hit || calls != 1 {
		t.Fatalf("second call = (%d, %s, %d calls), want (42, hit, 1)", v, disp, calls)
	}
	hits, misses, shared := c.Stats()
	if hits != 1 || misses != 1 || shared != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 1, 0)", hits, misses, shared)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int, int](2)
	for i := 0; i < 3; i++ {
		c.Add(i, i*10)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(0); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	// Touch 1, add 3: 2 (now least recent) must go.
	if v, ok := c.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = (%d, %v)", v, ok)
	}
	c.Add(3, 30)
	if _, ok := c.Get(2); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("recently used entry was evicted")
	}
}

func TestCapacityMinimumOne(t *testing.T) {
	c := New[int, int](0)
	if c.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", c.Capacity())
	}
	c.Add(1, 1)
	c.Add(2, 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Add("k", 1)
	c.Add("k", 2)
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Fatalf("Get = (%d, %v), want (2, true)", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestFlush(t *testing.T) {
	c := New[string, int](4)
	mustGet(t, c, "k", func() (int, error) { return 1, nil })
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("len after flush = %d", c.Len())
	}
	_, disp := mustGet(t, c, "k", func() (int, error) { return 1, nil })
	if disp != Miss {
		t.Fatalf("post-flush disposition = %s, want miss", disp)
	}
	if _, misses, _ := c.Stats(); misses != 2 {
		t.Fatalf("misses = %d, want 2 (counters survive flush)", misses)
	}
}

// TestSingleflightCoalesces: two concurrent identical misses must run
// compute exactly once — one miss, one shared.
func TestSingleflightCoalesces(t *testing.T) {
	c := New[string, int](4)
	followerJoined := make(chan struct{})
	c.SetOnFlight(func(k string, leader bool) {
		if leader {
			<-followerJoined
		} else {
			close(followerJoined)
		}
	})
	calls := 0
	dispositions := make([]string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, disp, err := c.GetOrCompute(bg, "k", func() (int, error) {
				calls++
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("call %d = (%d, %v)", i, v, err)
			}
			dispositions[i] = disp
		}(i)
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	got := map[string]int{}
	for _, d := range dispositions {
		got[d]++
	}
	if got[Miss] != 1 || got[Shared] != 1 {
		t.Fatalf("dispositions = %v, want one miss and one shared", dispositions)
	}
}

// TestCancelledLeaderNeverPoisons is the memoization-safety acceptance
// test: a leader whose context is cancelled mid-compute reports the
// error only to itself; a live follower waiting on the flight retries,
// recomputes, and stores a good value — the failed compute is never
// cached.
func TestCancelledLeaderNeverPoisons(t *testing.T) {
	c := New[string, int](4)
	leaderCtx, cancelLeader := context.WithCancel(bg)
	followerJoined := make(chan struct{})
	leaderStarted := make(chan struct{})
	var once sync.Once
	c.SetOnFlight(func(k string, leader bool) {
		if !leader {
			once.Do(func() { close(followerJoined) })
		}
	})

	computes := 0
	var mu sync.Mutex
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(leaderCtx, "k", func() (int, error) {
			mu.Lock()
			computes++
			mu.Unlock()
			close(leaderStarted)
			// Block until the follower has joined, then fail with the
			// (cancelled) context's error, as a real partitioner would.
			<-followerJoined
			cancelLeader()
			return 0, fmt.Errorf("compute: %w", leaderCtx.Err())
		})
		leaderErr <- err
	}()
	// The flight is registered before compute runs, so once compute has
	// started the next GetOrCompute must join as a follower.
	<-leaderStarted

	// The follower has a live context: it must survive the leader's
	// failure, retry, recompute, and get a value.
	v, disp, err := c.GetOrCompute(bg, "k", func() (int, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		return 99, nil
	})
	if err != nil || v != 99 {
		t.Fatalf("follower = (%d, %s, %v), want (99, _, nil)", v, disp, err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want wrapped Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (leader failed, follower recomputed)", computes)
	}
	// The stored value is the follower's, not the failed leader's.
	if v, ok := c.Get("k"); !ok || v != 99 {
		t.Fatalf("cached = (%d, %v), want (99, true)", v, ok)
	}
}

// TestDeadFollowerGetsOwnError: a follower whose own context dies while
// waiting receives its context error, not the leader's result.
func TestDeadFollowerGetsOwnError(t *testing.T) {
	c := New[string, int](4)
	followerJoined := make(chan struct{})
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	c.SetOnFlight(func(k string, leader bool) {
		if !leader {
			close(followerJoined)
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(bg, "k", func() (int, error) { //nolint:errcheck
			close(leaderStarted)
			<-release
			return 1, nil
		})
	}()
	<-leaderStarted
	ctx, cancel := context.WithCancel(bg)
	go func() {
		<-followerJoined
		cancel()
	}()
	_, _, err := c.GetOrCompute(ctx, "k", func() (int, error) { return 2, nil })
	close(release)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want Canceled", err)
	}
}

// TestConcurrentHammer exercises the cache under the race detector:
// many goroutines, overlapping keys, eviction pressure.
func TestConcurrentHammer(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 16
				v, _, err := c.GetOrCompute(bg, k, func() (int, error) { return k * 3, nil })
				if err != nil || v != k*3 {
					t.Errorf("GetOrCompute(%d) = (%d, %v)", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, shared := c.Stats()
	if hits+misses+shared != 8*200 {
		t.Fatalf("counter sum %d != %d calls", hits+misses+shared, 8*200)
	}
}

// fakeTier is an in-memory second level recording its lookups; its
// Lookup method is the Tier a test installs.
type fakeTier struct {
	mu      sync.Mutex
	vals    map[string]int
	lookups []string
	fail    bool // when set, every Lookup misses regardless of vals
}

func newFakeTier() *fakeTier { return &fakeTier{vals: map[string]int{}} }

func (ft *fakeTier) Lookup(ctx context.Context, k string) (int, bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.lookups = append(ft.lookups, k)
	if ft.fail {
		return 0, false
	}
	v, ok := ft.vals[k]
	return v, ok
}

func (ft *fakeTier) lookupCount() int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return len(ft.lookups)
}

func TestTierHitSkipsCompute(t *testing.T) {
	c := New[string, int](4)
	ft := newFakeTier()
	ft.vals["k"] = 7
	c.SetTier(ft.Lookup)

	calls := 0
	v, disp := mustGet(t, c, "k", func() (int, error) { calls++; return -1, nil })
	if v != 7 || disp != TierHit || calls != 0 {
		t.Fatalf("tier-served call = (%d, %s, %d calls), want (7, tier, 0)", v, disp, calls)
	}
	if got := c.TierHits(); got != 1 {
		t.Fatalf("TierHits = %d, want 1", got)
	}
	_, misses, _ := c.Stats()
	if misses != 0 {
		t.Fatalf("misses = %d, want 0 (no compute ran)", misses)
	}
	// The tier answer was stored locally: the next call is a plain hit.
	if _, disp = mustGet(t, c, "k", func() (int, error) { calls++; return -1, nil }); disp != Hit {
		t.Fatalf("second call disposition = %s, want hit", disp)
	}
	if lookups := ft.lookupCount(); lookups != 1 {
		t.Fatalf("tier lookups = %d, want 1", lookups)
	}
}

// TestTierMissComputes: a tier miss runs the compute, counts a miss,
// and stores the result locally (the next call is a hit, with no
// second lookup). Writing it back to the tier is the caller's job.
func TestTierMissComputes(t *testing.T) {
	c := New[string, int](4)
	ft := newFakeTier()
	c.SetTier(ft.Lookup)

	calls := 0
	v, disp := mustGet(t, c, "k", func() (int, error) { calls++; return 42, nil })
	if v != 42 || disp != Miss || calls != 1 {
		t.Fatalf("tier-miss call = (%d, %s, %d calls), want (42, miss, 1)", v, disp, calls)
	}
	if v, disp = mustGet(t, c, "k", func() (int, error) { calls++; return -1, nil }); v != 42 || disp != Hit {
		t.Fatalf("second call = (%d, %s), want (42, hit)", v, disp)
	}
	if lookups := ft.lookupCount(); lookups != 1 {
		t.Fatalf("tier lookups = %d, want 1", lookups)
	}
	if got := c.TierHits(); got != 0 {
		t.Fatalf("TierHits = %d, want 0", got)
	}
}

func TestTierFailureDegradesToCompute(t *testing.T) {
	c := New[string, int](4)
	ft := newFakeTier()
	ft.fail = true
	ft.vals["k"] = 7 // present but unreachable
	c.SetTier(ft.Lookup)

	v, disp := mustGet(t, c, "k", func() (int, error) { return 42, nil })
	if v != 42 || disp != Miss {
		t.Fatalf("degraded call = (%d, %s), want (42, miss)", v, disp)
	}
}

// TestTierLookupOncePerFlight pins the singleflight property across the
// tier: concurrent identical misses perform exactly one tier lookup,
// and followers of a tier-served flight report Shared.
func TestTierLookupOncePerFlight(t *testing.T) {
	c := New[string, int](4)
	ft := newFakeTier()
	ft.vals["k"] = 7
	c.SetTier(ft.Lookup)

	const followers = 4
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.SetOnFlight(func(k string, leader bool) {
		if leader {
			once.Do(func() { close(leaderIn) })
			<-release
		}
	})
	// fakeTier.Lookup runs after the hook releases; park the leader
	// until every follower has joined the flight.
	type out struct {
		v    int
		disp string
	}
	results := make(chan out, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, disp, err := c.GetOrCompute(bg, "k", func() (int, error) { return -1, nil })
		if err != nil {
			t.Error(err)
		}
		results <- out{v, disp}
	}()
	<-leaderIn
	joined := make(chan struct{}, followers)
	c.SetOnFlight(func(k string, leader bool) {
		if !leader {
			joined <- struct{}{}
		}
	})
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, disp, err := c.GetOrCompute(bg, "k", func() (int, error) { return -1, nil })
			if err != nil {
				t.Error(err)
			}
			results <- out{v, disp}
		}()
	}
	for i := 0; i < followers; i++ {
		<-joined
	}
	close(release)
	wg.Wait()
	close(results)

	dispCount := map[string]int{}
	for r := range results {
		if r.v != 7 {
			t.Fatalf("value = %d, want 7", r.v)
		}
		dispCount[r.disp]++
	}
	if dispCount[TierHit] != 1 || dispCount[Shared] != followers {
		t.Fatalf("dispositions = %v, want 1 tier + %d shared", dispCount, followers)
	}
	if lookups := ft.lookupCount(); lookups != 1 {
		t.Fatalf("tier lookups = %d, want exactly 1 for the whole herd", lookups)
	}
}
