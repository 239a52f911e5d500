package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"samr/internal/partition"
	"samr/internal/trace"
)

// TestExpiredDeadlineIsWireErrorWithoutCompute: a request whose
// deadline is already over when handling starts must return the
// documented 504 wire error without ever running a partitioner
// (acceptance criterion: no call site ignores cancellation).
func TestExpiredDeadlineIsWireErrorWithoutCompute(t *testing.T) {
	srv, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	h := testHierarchy(1)
	r := post(t, ts.URL+"/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 8}, nil)
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", r.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("504 body not the documented JSON error: %v %+v", err, e)
	}
	if _, misses, _ := srv.Cache().Stats(); misses != 0 {
		t.Fatalf("expired request executed %d partitioner runs, want 0", misses)
	}
	// Simulate and select are bounded the same way.
	if r := post(t, ts.URL+"/v1/select", SelectRequest{Hierarchy: &h}, nil); r.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("select status = %d, want 504", r.StatusCode)
	}
}

// TestUnaffordableHierarchyIsBadRequest: a valid 171-byte post whose
// one-box base level, 65536² cells, chops into 2^30 units of edge 2 is
// refused with a 400 naming the count and the budget, well inside its
// one-second deadline, on every route that partitions: a one-shot post,
// a session step and a simulated trace. Before the unit budget it ran
// until the deadline's 504, holding about a gigabyte of heap, and under
// the default two-minute timeout until the daemon was killed. A refusal
// caches nothing.
func TestUnaffordableHierarchyIsBadRequest(t *testing.T) {
	srv, ts := newTestServer(t, Config{RequestTimeout: time.Second})
	huge := Hierarchy{
		Domain:   Box{Dim: 2, Lo: []int{0, 0}, Hi: []int{65536, 65536}},
		RefRatio: 2,
		Levels:   [][]Box{{{Dim: 2, Lo: []int{0, 0}, Hi: []int{65536, 65536}}}},
	}
	refused := func(route string, send func() *http.Response) {
		t.Helper()
		start := time.Now()
		r := send()
		if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
			t.Errorf("%s: answered after %v", route, elapsed)
		}
		var e ErrorResponse
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
			t.Fatalf("%s: body not the JSON error: %v", route, err)
		}
		if r.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "1073741824 units") || !strings.Contains(e.Error, "1048576") {
			t.Errorf("%s: status %d, error %q; want 400 naming 1073741824 units and the budget 1048576", route, r.StatusCode, e.Error)
		}
	}

	post1 := PartitionRequest{Hierarchy: &huge, Partitioner: "nature+fable", NProcs: 4}
	if body, _ := json.Marshal(post1); len(body) != 171 {
		t.Fatalf("request body is %d bytes, want the 171 of the report", len(body))
	}
	refused("partition", func() *http.Response { return post(t, ts.URL+"/v1/partition", post1, nil) })

	sess := createSession(t, ts.URL, huge, "nature+fable", 4)
	refused("session step", func() *http.Response {
		return post(t, ts.URL+"/v1/session/"+sess.Session+"/step", SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}}}, nil)
	})

	h, err := huge.toGrid()
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{App: "HUGE", RefRatio: 2, MaxLevels: 1, Domain: h.Domain}
	tr.Append(0, 0, h)
	srv.Registry().Register("huge", tr)
	refused("simulate", func() *http.Response {
		return post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: "huge", Partitioner: "nature+fable", NProcs: 4}, nil)
	})

	if n := srv.Cache().Len(); n != 0 {
		t.Errorf("a refused request left %d cache entries", n)
	}
}

// TestPartitionSingleflight is the coalescing acceptance test: two
// concurrent identical cache-missing /v1/partition requests must result
// in exactly one partitioner execution — one request computes ("miss"),
// the other shares the in-flight result ("shared").
func TestPartitionSingleflight(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// Deterministic interleaving: the compute leader blocks until the
	// second request has joined the flight as a follower.
	followerJoined := make(chan struct{})
	srv.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader {
			<-followerJoined
		} else {
			close(followerJoined)
		}
	})

	h := testHierarchy(2)
	req := PartitionRequest{Hierarchy: &h, Partitioner: "nature+fable", NProcs: 8}
	dispositions := make([]string, 2)
	sigs := make([]string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp PartitionResponse
			r := post(t, ts.URL+"/v1/partition", req, &resp)
			if r.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, r.StatusCode)
				return
			}
			dispositions[i] = r.Header.Get("X-Samr-Cache")
			sigs[i] = resp.Results[0].Signature
		}(i)
	}
	wg.Wait()

	hits, misses, shared := srv.Cache().Stats()
	if misses != 1 {
		t.Errorf("partitioner executions (misses) = %d, want exactly 1", misses)
	}
	if shared != 1 {
		t.Errorf("shared = %d, want 1", shared)
	}
	if hits != 0 {
		t.Errorf("hits = %d, want 0", hits)
	}
	got := map[string]bool{dispositions[0]: true, dispositions[1]: true}
	if !got[CacheMiss] || !got[CacheShared] {
		t.Errorf("dispositions = %v, want one miss and one shared", dispositions)
	}
	if sigs[0] != sigs[1] || sigs[0] == "" {
		t.Errorf("coalesced requests disagree on signature: %q vs %q", sigs[0], sigs[1])
	}
}

// TestGetOrComputeLeaderFailureDoesNotPoisonFollowers: when the leader
// of a flight is cancelled, a follower with a live context retries and
// computes the result itself rather than inheriting the error.
func TestGetOrComputeLeaderFailureDoesNotPoisonFollowers(t *testing.T) {
	c := NewPartitionCache(8)
	key := CacheKey{Sig: sigOf(0), Partitioner: "x", NProcs: 2}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	followerJoined := make(chan struct{})
	leaderStarted := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)
	var followerDisp string
	var followerErr error
	go func() { // leader: fails with its own cancellation
		defer wg.Done()
		_, _, err := c.GetOrCompute(leaderCtx, key, func() (*partition.Assignment, error) {
			close(leaderStarted)
			<-followerJoined // ensure the follower joined the flight
			cancelLeader()
			return nil, leaderCtx.Err()
		})
		if err == nil {
			t.Error("cancelled leader reported no error")
		}
	}()
	go func() { // follower: must retry and succeed
		defer wg.Done()
		<-leaderStarted
		close(followerJoined)
		var a *partition.Assignment
		a, followerDisp, followerErr = c.GetOrCompute(context.Background(), key, func() (*partition.Assignment, error) {
			return &partition.Assignment{NumProcs: 2}, nil
		})
		if a == nil {
			t.Error("follower got nil assignment")
		}
	}()
	wg.Wait()
	if followerErr != nil {
		t.Fatalf("follower inherited the leader's failure: %v", followerErr)
	}
	// The follower either joined the flight and retried as the new
	// leader (miss) or raced past the flight entirely (miss) — either
	// way it must have computed, not shared a failure.
	if followerDisp != CacheMiss {
		t.Errorf("follower disposition = %q, want miss (own compute)", followerDisp)
	}
}

// TestPartitionCancelMidBatchNoGoroutineLeak: cancelling a batched
// /v1/partition mid-compute aborts promptly with the 499-style outcome
// and leaves no goroutines behind (pool helpers drain).
func TestPartitionCancelMidBatchNoGoroutineLeak(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel the request the moment the first compute starts: the
	// partitioner aborts at its next poll, mid-batch.
	s.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader {
			cancel()
		}
	})
	batch := make([]Hierarchy, 16)
	for i := range batch {
		batch[i] = testHierarchy(i)
	}
	body, err := json.Marshal(PartitionRequest{Hierarchies: batch, Partitioner: "nature+fable", NProcs: 16})
	if err != nil {
		t.Fatal(err)
	}

	settle := func() int {
		runtime.GC()
		return runtime.NumGoroutine()
	}
	baseline := settle()

	req := httptest.NewRequest("POST", "/v1/partition", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not abort promptly")
	}
	if rec.Code != StatusClientClosedRequest && rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 499 (cancel) wire error", rec.Code)
	}

	// Goroutine count must settle back to the baseline (the request
	// goroutine and any pool helpers are gone).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := settle(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsEndpoint: /v1/stats reports cache counters, the in-flight
// gauge, the pool size, and per-endpoint request/error totals.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	h := testHierarchy(0)
	post(t, ts.URL+"/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
	post(t, ts.URL+"/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
	post(t, ts.URL+"/v1/partition", PartitionRequest{Partitioner: "domain"}, nil) // 400: no hierarchy

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", r.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Shared != 0 {
		t.Errorf("cache counters = %+v, want 1 hit / 1 miss / 0 shared", st.Cache)
	}
	if st.Cache.Entries != 1 || st.Cache.Capacity <= 0 {
		t.Errorf("cache occupancy = %d/%d", st.Cache.Entries, st.Cache.Capacity)
	}
	if st.PoolSize < 1 {
		t.Errorf("pool size = %d", st.PoolSize)
	}
	// The stats request itself is in flight while it is served.
	if st.InFlight < 1 {
		t.Errorf("in-flight = %d, want >= 1", st.InFlight)
	}
	ep := st.Endpoints["partition"]
	if ep.Requests != 3 || ep.Errors != 1 {
		t.Errorf("partition endpoint = %+v, want 3 requests / 1 error", ep)
	}
	if st.Endpoints["stats"].Requests != 1 {
		t.Errorf("stats endpoint = %+v, want its own request counted", st.Endpoints["stats"])
	}
	// The partition-layer unit-chain caches under the partitioners see
	// at least the miss (and possibly prior hits — they are process
	// wide), and their occupancy is bounded.
	if st.UnitChains.Misses == 0 {
		t.Errorf("unit-chain counters = %+v, want at least one miss", st.UnitChains)
	}
	if st.UnitChains.Capacity <= 0 || st.UnitChains.Entries > st.UnitChains.Capacity {
		t.Errorf("unit-chain occupancy = %d/%d", st.UnitChains.Entries, st.UnitChains.Capacity)
	}
}

// wideStrips is the wire hierarchy on which Validate was quadratic: a
// one-cell base domain, refinement ratio 2^15, and 65536 one-row strips
// on level 1, two to a row, each half the level wide; a 3 MB body.
func wideStrips() Hierarchy {
	const ratio = 1 << 15
	strips := make([]Box, 1<<16)
	for i := range strips {
		x := i % 2 * ratio / 2
		strips[i] = Box{Dim: 2, Lo: []int{x, i / 2}, Hi: []int{x + ratio/2, i/2 + 1}}
	}
	cell := Box{Dim: 2, Lo: []int{0, 0}, Hi: []int{1, 1}}
	return Hierarchy{Domain: cell, RefRatio: ratio, Levels: [][]Box{{cell}, strips}}
}

// TestWideStripsAnsweredInTime: Validate held the wide-strip body for
// 21.7 s, which no deadline can stop, on every route that takes a full
// hierarchy. Posted with nprocs out of range, which each route checks
// after validating and before any partitioner or classifier runs, the
// body must be refused for its nprocs well inside the request timeout.
func TestWideStripsAnsweredInTime(t *testing.T) {
	const timeout = 20 * time.Second
	_, ts := newTestServer(t, Config{RequestTimeout: timeout})
	h := wideStrips()
	for _, c := range []struct {
		route string
		req   any
	}{
		{"/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "nature+fable", NProcs: maxProcs + 1}},
		{"/v1/session", SessionCreateRequest{Hierarchy: &h, Partitioner: "nature+fable", NProcs: maxProcs + 1}},
		{"/v1/select", SelectRequest{Hierarchy: &h, NProcs: maxProcs + 1}},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		r, err := http.Post(ts.URL+c.route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		err = json.NewDecoder(r.Body).Decode(&e)
		r.Body.Close()
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: body not the JSON error: %v", c.route, err)
		}
		if r.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "nprocs") || elapsed > timeout/4 {
			t.Errorf("%s: status %d, error %q after %v; want the 400 for nprocs inside %v", c.route, r.StatusCode, e.Error, elapsed, timeout/4)
		}
		t.Logf("%s: %d bytes refused after %v", c.route, len(body), elapsed)
	}
}
