package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samr/internal/admit"
)

// admitTestConfig enables admission with roomy limits so nothing sheds.
func admitTestConfig() Config {
	return Config{MaxInFlight: 8}
}

// postTenant posts with admission headers.
func postTenant(t *testing.T, url, tenant string, deadlineMs int, req, resp any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", url, jsonReader(t, body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hr.Header.Set(TenantHeader, tenant)
	}
	if deadlineMs > 0 {
		hr.Header.Set(DeadlineHeader, strconv.Itoa(deadlineMs))
	}
	r, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	raw, _ := io.ReadAll(r.Body)
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, resp); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", url, err, raw)
		}
	}
	r.Body = io.NopCloser(jsonReader(t, raw))
	return r
}

func jsonReader(t *testing.T, b []byte) io.Reader {
	t.Helper()
	return &sliceReader{b: b}
}

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// checkShedResponse asserts the documented 429 wire shape: JSON error
// body, Retry-After in whole seconds >= 1, and the reason header.
func checkShedResponse(t *testing.T, r *http.Response, wantReason string) {
	t.Helper()
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", r.StatusCode)
	}
	ra := r.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	if got := r.Header.Get(ShedHeader); got != wantReason {
		t.Errorf("%s = %q, want %q", ShedHeader, got, wantReason)
	}
	var e ErrorResponse
	if err := json.NewDecoder(r.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body not the documented JSON error: %v %+v", err, e)
	}
}

// saturate holds the one admission slot of srv (MaxInFlight 1) and
// fills its accept queue, so every compute request sheds for real
// (queue-full) until the returned func, or the test's end, gives the
// slot back.
func saturate(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	adm := srv.Admission()
	hold, err := adm.Admit(context.Background(), "", admit.Interactive, 0)
	if err != nil {
		t.Fatal(err)
	}
	depth := adm.Stats().QueueDepth
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for range depth {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := adm.Admit(ctx, "", admit.Interactive, 0); err == nil {
				r()
			}
		}()
	}
	for adm.Stats().Queued != depth {
		time.Sleep(100 * time.Microsecond)
	}
	release = sync.OnceFunc(func() {
		// The waiters leave before the slot frees up, so none is granted.
		cancel()
		wg.Wait()
		hold()
	})
	t.Cleanup(release)
	return release
}

// TestInjectedShedNeverExecutesPartitioner is the shed acceptance
// test: a request shed because admission is saturated — its one slot
// held, its queue full — must return the documented 429 without
// running any partitioner, without touching the partition cache, and
// without leaking goroutines.
func TestInjectedShedNeverExecutesPartitioner(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	release := saturate(t, srv)

	// Close keep-alive connections before counting so lingering HTTP
	// conn goroutines (client and server side) don't mask a real leak.
	settle := func() int {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine()
	}
	baseline := settle()

	h := testHierarchy(1)
	req := PartitionRequest{Hierarchy: &h, Partitioner: "nature+fable", NProcs: 8}
	for i := 0; i < 8; i++ {
		r := postTenant(t, ts.URL+"/v1/partition", "evil", 0, req, nil)
		checkShedResponse(t, r, admit.ReasonQueueFull)
	}

	// No partitioner ran, nothing entered any cache.
	if hits, misses, shared := srv.Cache().Stats(); hits != 0 || misses != 0 || shared != 0 {
		t.Fatalf("shed requests reached the cache: hits=%d misses=%d shared=%d", hits, misses, shared)
	}
	if n := srv.Cache().Len(); n != 0 {
		t.Fatalf("shed requests stored %d cache entries", n)
	}
	st := srv.Admission().Stats()
	if st.ShedQueueFull != 8 || st.Admitted != 1 {
		t.Fatalf("admission stats = %+v, want 8 queue-full sheds / only the held slot admitted", st)
	}
	if ten := st.Tenants["evil"]; ten.Shed != 8 || ten.InFlight != 0 {
		t.Fatalf("evil tenant stats = %+v, want 8 sheds / 0 in flight", ten)
	}

	// Goroutine count settles back to baseline: the shed path spawned
	// nothing that outlives the request.
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

	// With the slot back, the next request computes normally.
	release()
	var resp PartitionResponse
	if r := postTenant(t, ts.URL+"/v1/partition", "good", 0, req, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("good tenant status = %d after evil's sheds", r.StatusCode)
	}
}

// TestQueueFullShedBeforeCompute: with the single slot held by a
// blocked compute and its four queue places (four per in-flight slot)
// taken, the next request is shed with the queue-full 429 — and its
// shed path never starts a partitioner.
func TestQueueFullShedBeforeCompute(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		s, err := New(Config{MaxInFlight: n})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Admission().Stats().QueueDepth; got != 4*n {
			t.Fatalf("queue depth = %d with MaxInFlight %d, want %d", got, n, 4*n)
		}
	}
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	const depth = 4
	holderIn := make(chan struct{})
	holderGo := make(chan struct{})
	var leaders atomic.Int32
	// Block only the first compute leader (the slot holder); later
	// leaders (the queued requests, once granted) run through.
	srv.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader && leaders.Add(1) == 1 {
			close(holderIn)
			<-holderGo
		}
	})
	send := func(x int) *http.Response {
		h := testHierarchy(x)
		return postTenant(t, ts.URL+"/v1/partition", "", 0, PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); send(0) }() // the slot holder, blocked inside its compute
	<-holderIn

	// Fill the queue, one distinct request a place.
	for i := 1; i <= depth; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); send(i) }()
	}
	for srv.Admission().Stats().Queued != depth {
		time.Sleep(100 * time.Microsecond)
	}

	// The next request finds cap reached and queue full: fast 429.
	start := time.Now()
	r := send(depth + 1)
	shedLatency := time.Since(start)
	checkShedResponse(t, r, admit.ReasonQueueFull)
	if shedLatency > 2*time.Second {
		t.Errorf("shed took %v, want fail-fast", shedLatency)
	}

	close(holderGo)
	wg.Wait()
	// Exactly the admitted requests computed; the shed one never
	// reached a partitioner.
	if _, misses, _ := srv.Cache().Stats(); misses != 1+depth {
		t.Errorf("partitioner executions = %d, want %d (holder + queued; never the shed)", misses, 1+depth)
	}
	st := srv.Admission().Stats()
	if st.ShedQueueFull != 1 || st.Admitted != 1+depth {
		t.Errorf("admission stats = %+v, want 1 queue-full shed / %d admits", st, 1+depth)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("gauges after drain = %+v, want zero", st)
	}
}

// TestDeadlineBudgetShedsUpFront: a declared deadline budget smaller
// than the estimated queue wait sheds with 429 instead of queueing the
// request to die.
func TestDeadlineBudgetShedsUpFront(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	holderIn := make(chan struct{})
	holderGo := make(chan struct{})
	var leaders atomic.Int32
	srv.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader && leaders.Add(1) == 1 {
			close(holderIn)
			<-holderGo
		}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := testHierarchy(0)
		postTenant(t, ts.URL+"/v1/partition", "", 0, PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
	}()
	<-holderIn

	// 1ms of budget against a 100ms default service estimate: doomed.
	h := testHierarchy(1)
	r := postTenant(t, ts.URL+"/v1/partition", "", 1, PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
	checkShedResponse(t, r, admit.ReasonDeadline)

	// Budgets too large for a Duration are "no useful cap", not a tiny
	// or negative one: unchecked, the first wraps to 0.45ms (shed here,
	// or a 504 once admitted) and the second wraps negative. Both must
	// queue behind the holder and then run to a 200.
	for i, ms := range []int{18446744073710, 9223372036855} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := testHierarchy(2 + i)
			r := postTenant(t, ts.URL+"/v1/partition", "", ms, PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
			if r.StatusCode != http.StatusOK {
				t.Errorf("%s: %d = status %d (shed %q), want 200", DeadlineHeader, ms, r.StatusCode, r.Header.Get(ShedHeader))
			}
		}()
	}
	// Bounded: a request wrongly shed never queues (and has already
	// reported its status above).
	for end := time.Now().Add(5 * time.Second); srv.Admission().Stats().Queued != 2 && time.Now().Before(end); {
		time.Sleep(100 * time.Microsecond)
	}

	close(holderGo)
	wg.Wait()
	// The holder and the two oversized-budget requests computed; the
	// doomed request never did.
	if _, misses, _ := srv.Cache().Stats(); misses != 3 {
		t.Errorf("partitioner executions = %d, want 3 (doomed request must not compute)", misses)
	}
	if st := srv.Admission().Stats(); st.ShedDeadline != 1 {
		t.Errorf("shed_deadline = %d, want 1", st.ShedDeadline)
	}
}

// TestTenantRateLimitIsolation: a tenant over its rate is throttled
// with 429 + Retry-After while other tenants are unaffected.
func TestTenantRateLimitIsolation(t *testing.T) {
	// The bucket holds ceil(TenantRate) = 1 token.
	srv, ts := newTestServer(t, Config{MaxInFlight: 8, TenantRate: 0.5})
	h := testHierarchy(3)
	req := PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}

	if r := postTenant(t, ts.URL+"/v1/partition", "alice", 0, req, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("alice's first request: status %d", r.StatusCode)
	}
	r := postTenant(t, ts.URL+"/v1/partition", "alice", 0, req, nil)
	checkShedResponse(t, r, admit.ReasonRateLimit)
	if secs, _ := strconv.Atoi(r.Header.Get("Retry-After")); secs < 1 || secs > 3 {
		t.Errorf("Retry-After = %q, want ~2s (one token at 0.5/s)", r.Header.Get("Retry-After"))
	}
	// Bob is unaffected by alice's exhausted bucket.
	if r := postTenant(t, ts.URL+"/v1/partition", "bob", 0, req, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("bob status = %d, want 200 (tenant isolation)", r.StatusCode)
	}

	st := srv.Admission().Stats()
	if st.Tenants["alice"].Throttled != 1 || st.Tenants["bob"].Throttled != 0 {
		t.Errorf("tenant throttle counters = alice %+v bob %+v", st.Tenants["alice"], st.Tenants["bob"])
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: /readyz is
// 200 when idle, 503 while the accept queue is saturated, 503 after
// BeginShutdown — and /healthz answers ok throughout.
func TestReadyzLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})

	checkReady := func(wantCode int, wantReason string) {
		t.Helper()
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != wantCode {
			t.Fatalf("/readyz status = %d, want %d", r.StatusCode, wantCode)
		}
		var rr ReadyResponse
		if err := json.NewDecoder(r.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		if rr.Reason != wantReason {
			t.Errorf("/readyz reason = %q, want %q", rr.Reason, wantReason)
		}
	}
	checkHealth := func() {
		t.Helper()
		r, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %d, want 200 (liveness is independent of readiness)", r.StatusCode)
		}
	}

	checkReady(http.StatusOK, "")
	checkHealth()

	// Saturate: block the slot, fill the queue's four places.
	holderIn := make(chan struct{})
	holderGo := make(chan struct{})
	var leaders atomic.Int32
	srv.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader && leaders.Add(1) == 1 {
			close(holderIn)
			<-holderGo
		}
	})
	var wg sync.WaitGroup
	for i := 0; i < 1+4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := testHierarchy(i)
			postTenant(t, ts.URL+"/v1/partition", "", 0, PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
		}(i)
		if i == 0 {
			<-holderIn
		}
	}
	for !srv.Admission().Saturated() {
		time.Sleep(100 * time.Microsecond)
	}
	checkReady(http.StatusServiceUnavailable, "saturated")
	checkHealth()

	close(holderGo)
	wg.Wait()
	checkReady(http.StatusOK, "")

	srv.BeginShutdown()
	checkReady(http.StatusServiceUnavailable, "draining")
	checkHealth()
}

// TestAdmissionDisabledIsTransparent: with MaxInFlight 0 the admission
// layer must vanish — no admission headers, no admission stats block,
// and partition responses byte-identical to an admission-enabled
// server's for the same request (the disabled path adds or removes
// nothing from the wire).
func TestAdmissionDisabledIsTransparent(t *testing.T) {
	srvOff, tsOff := newTestServer(t, Config{})
	_, tsOn := newTestServer(t, admitTestConfig())

	h := testHierarchy(5)
	req := PartitionRequest{Hierarchy: &h, Partitioner: "domain-hilbert-u2", NProcs: 8}
	read := func(ts string) ([]byte, http.Header) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(ts+"/v1/partition", "application/json", jsonReader(t, body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status %d", r.StatusCode)
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw, r.Header
	}
	offBody, offHdr := read(tsOff.URL)
	onBody, _ := read(tsOn.URL)
	if string(offBody) != string(onBody) {
		t.Errorf("partition responses differ between admission off/on:\noff: %s\non:  %s", offBody, onBody)
	}
	for _, hdr := range []string{"Retry-After", ShedHeader} {
		if v := offHdr.Get(hdr); v != "" {
			t.Errorf("disabled server emitted %s=%q", hdr, v)
		}
	}

	// The disabled server's stats carry no admission block at all.
	r, err := http.Get(tsOff.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["admission"]; ok {
		t.Error("disabled server reports an admission stats block")
	}
	if srvOff.Admission() != nil {
		t.Error("disabled server exposes an admission controller")
	}
}

// TestSimulateIsBatchClassAndGuarded: /v1/simulate passes through
// admission like the interactive endpoints (a saturated gate sheds it)
// — the class split is about priority, not about bypassing the
// gate: a simulate queued ahead of a partition is still granted the
// freed slot after it.
func TestSimulateIsBatchClassAndGuarded(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	srv.Registry().Register("synthetic", testTrace(4))
	simulate := SimulateRequest{Trace: "synthetic", Partitioner: "domain", NProcs: 4}

	// The test holds the one slot, queues a simulate and then a
	// partition behind it, and lets go. Whichever runs first runs alone,
	// so the partition's compute sees the simulate still queued exactly
	// when the simulate, first to arrive, waited as Batch.
	release, err := srv.Admission().Admit(context.Background(), "", admit.Interactive, 0)
	if err != nil {
		t.Fatal(err)
	}
	queuedBehind := -1
	srv.Cache().SetOnFlight(func(CacheKey, bool) { queuedBehind = srv.Admission().Stats().Queued })
	h := testHierarchy(1)
	var wg sync.WaitGroup
	for i, send := range []func(){
		func() { postTenant(t, ts.URL+"/v1/simulate", "", 0, simulate, nil) },
		func() {
			postTenant(t, ts.URL+"/v1/partition", "", 0, PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}, nil)
		},
	} {
		wg.Add(1)
		go func() { defer wg.Done(); send() }()
		for srv.Admission().Stats().Queued != i+1 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	release()
	wg.Wait()
	if queuedBehind != 1 {
		t.Errorf("the partition computed with %d requests queued behind it, want 1: simulate must queue as Batch", queuedBehind)
	}

	srv, ts = newTestServer(t, Config{MaxInFlight: 1})
	srv.Registry().Register("synthetic", testTrace(4))
	saturate(t, srv)
	checkShedResponse(t, postTenant(t, ts.URL+"/v1/simulate", "", 0, simulate, nil), admit.ReasonQueueFull)

	// Observability endpoints bypass admission even when everything
	// compute-shaped is shed.
	for _, path := range []string{"/v1/stats", "/v1/traces", "/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Errorf("%s was shed; observability must bypass admission", path)
		}
	}
}
