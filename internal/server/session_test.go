package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// wideHierarchy builds a three-level wire hierarchy with a large static
// middle level (64 boxes) and one moving finest patch — the shape a
// session exists for: most of the state survives every regrid, so a
// delta touches one box while a full post re-uploads all 66.
func wideHierarchy(x int) Hierarchy {
	l0 := []Box{{Dim: 2, Lo: []int{0, 0}, Hi: []int{64, 64}}}
	var l1 []Box
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			l1 = append(l1, Box{Dim: 2, Lo: []int{i * 16, j * 16}, Hi: []int{i*16 + 16, j*16 + 16}})
		}
	}
	return Hierarchy{
		Domain:   Box{Dim: 2, Lo: []int{0, 0}, Hi: []int{64, 64}},
		RefRatio: 2,
		Levels:   [][]Box{l0, l1, {{Dim: 2, Lo: []int{x, 100}, Hi: []int{x + 32, 132}}}},
	}
}

// finestStep is the delta advancing wideHierarchy's finest patch to x.
func finestStep(x int) SessionStepRequest {
	return SessionStepRequest{Levels: []LevelOp{
		{Op: LevelKeep}, {Op: LevelKeep},
		{Op: LevelReplace, Boxes: []Box{{Dim: 2, Lo: []int{x, 100}, Hi: []int{x + 32, 132}}}},
	}}
}

func del(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	raw, _ := io.ReadAll(resp.Body)
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp
}

func createSession(t *testing.T, baseURL string, h Hierarchy, spec string, nprocs int) SessionCreateResponse {
	t.Helper()
	var create SessionCreateResponse
	r := post(t, baseURL+"/v1/session", SessionCreateRequest{Hierarchy: &h, Partitioner: spec, NProcs: nprocs}, &create)
	if r.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(r.Body)
		t.Fatalf("session create: status %d\n%s", r.StatusCode, raw)
	}
	if r.Header.Get(SessionHeader) != create.Session || create.Session == "" {
		t.Fatalf("session header %q vs body %q", r.Header.Get(SessionHeader), create.Session)
	}
	return create
}

func errorCode(t *testing.T, r *http.Response) string {
	t.Helper()
	var e ErrorResponse
	raw, _ := io.ReadAll(r.Body)
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, raw)
	}
	return e.Code
}

// TestSessionStepMatchesFullPost pins the tentpole's wire contract: a
// step response — body and cache headers — is byte-identical to the
// equivalent full /v1/partition post of the reconstructed hierarchy on
// an identically fresh server, across misses and hits.
func TestSessionStepMatchesFullPost(t *testing.T) {
	_, sessTS := newTestServer(t, Config{})
	_, fullTS := newTestServer(t, Config{})

	base := testHierarchy(0)
	create := createSession(t, sessTS.URL, base, "domain", 8)
	bh, err := base.toGrid()
	if err != nil {
		t.Fatal(err)
	}
	if got := bh.Signature().String(); got != create.Signature {
		t.Fatalf("create signature %s != in-process %s", create.Signature, got)
	}
	if len(create.Levels) != 2 {
		t.Fatalf("create level digests: %v", create.Levels)
	}
	for l, want := range create.Levels {
		if got := bh.LevelSignature(l).String(); got != want {
			t.Errorf("level %d digest %s != in-process %s", l, want, got)
		}
	}

	stepURL := sessTS.URL + "/v1/session/" + create.Session + "/step"
	check := func(label string, step SessionStepRequest, h Hierarchy) {
		t.Helper()
		rs := post(t, stepURL, step, nil)
		sessBody, _ := io.ReadAll(rs.Body)
		rf := post(t, fullTS.URL+"/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 8}, nil)
		fullBody, _ := io.ReadAll(rf.Body)
		if rs.StatusCode != http.StatusOK || rf.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d vs %d\n%s\n%s", label, rs.StatusCode, rf.StatusCode, sessBody, fullBody)
		}
		if !bytes.Equal(sessBody, fullBody) {
			t.Fatalf("%s: step body differs from full post\nstep: %s\nfull: %s", label, sessBody, fullBody)
		}
		for _, k := range []string{"X-Samr-Cache", "X-Samr-Cache-Hits", "X-Samr-Cache-Misses", "X-Samr-Cache-Shared", "X-Samr-Signature"} {
			if rs.Header.Get(k) != rf.Header.Get(k) {
				t.Errorf("%s: header %s: step %q vs full %q", label, k, rs.Header.Get(k), rf.Header.Get(k))
			}
		}
		if rs.Header.Get(SessionHeader) != create.Session {
			t.Errorf("%s: step response session header %q", label, rs.Header.Get(SessionHeader))
		}
	}

	for i := 1; i <= 5; i++ {
		h := testHierarchy(i)
		check("replace", SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelReplace, Boxes: h.Levels[1]}}}, h)
	}
	// A pure-keep step repeats the state: cache hit on both paths.
	check("pure-keep", SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelKeep}}}, testHierarchy(5))
}

// TestSessionStepRequestBytes pins the O(changed boxes) wire claim: on
// the wide trajectory a step request is >= 5x smaller than the full
// post it replaces.
func TestSessionStepRequestBytes(t *testing.T) {
	h := wideHierarchy(8)
	full, err := json.Marshal(PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 8})
	if err != nil {
		t.Fatal(err)
	}
	step, err := json.Marshal(finestStep(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 5*len(step) {
		t.Fatalf("full post %dB not >= 5x step %dB", len(full), len(step))
	}
	t.Logf("full post %dB, session step %dB (%.1fx)", len(full), len(step), float64(len(full))/float64(len(step)))
}

// TestSessionExpiry covers the TTL contract: an idle session answers
// the documented 410 session-expired error on step and delete, and the
// expiry is accounted in /v1/stats.
func TestSessionExpiry(t *testing.T) {
	srv, ts := newTestServer(t, Config{SessionTTL: time.Minute})
	now := time.Now()
	srv.sessions.now = func() time.Time { return now }

	create := createSession(t, ts.URL, wideHierarchy(0), "domain", 8)
	now = now.Add(2 * time.Minute)

	r := post(t, ts.URL+"/v1/session/"+create.Session+"/step", finestStep(8), nil)
	if r.StatusCode != http.StatusGone {
		t.Fatalf("expired step: status %d, want 410", r.StatusCode)
	}
	if code := errorCode(t, r); code != CodeSessionExpired {
		t.Fatalf("expired step: code %q, want %q", code, CodeSessionExpired)
	}
	if r := del(t, ts.URL+"/v1/session/"+create.Session); r.StatusCode != http.StatusGone {
		t.Fatalf("expired delete: status %d, want 410", r.StatusCode)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sessions == nil || st.Sessions.Expired == 0 || st.Sessions.Active != 0 {
		t.Fatalf("stats after expiry: %+v", st.Sessions)
	}
}

// TestSessionEviction covers the capacity bound: the table holds 256
// sessions, past that the least recently used session is evicted and
// answers 410 like an expired one, while the surviving sessions keep
// working.
func TestSessionEviction(t *testing.T) {
	const capacity = 256
	_, ts := newTestServer(t, Config{})
	first := createSession(t, ts.URL, wideHierarchy(0), "domain", 8)
	var last SessionCreateResponse
	for range capacity {
		last = createSession(t, ts.URL, wideHierarchy(8), "domain", 8)
	}

	r := post(t, ts.URL+"/v1/session/"+first.Session+"/step", finestStep(16), nil)
	if r.StatusCode != http.StatusGone || errorCode(t, r) != CodeSessionExpired {
		t.Fatalf("evicted step: status %d", r.StatusCode)
	}
	if r := post(t, ts.URL+"/v1/session/"+last.Session+"/step", finestStep(16), nil); r.StatusCode != http.StatusOK {
		t.Fatalf("surviving step: status %d", r.StatusCode)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sessions.Evicted != 1 || st.Sessions.Active != capacity || st.Sessions.Capacity != capacity {
		t.Fatalf("stats after eviction: %+v", st.Sessions)
	}
}

// newSmallSessionServer is newTestServer with a session table of
// capacity entries instead of 256, for the eviction races, which need
// the table full after one or two creates.
func newSmallSessionServer(t *testing.T, capacity int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.sessions.max = capacity
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// TestSessionLifecycleErrors walks the remaining error surface: base
// drift (409), malformed deltas (400), unknown sessions (410), and the
// delete-then-gone sequence.
func TestSessionLifecycleErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	create := createSession(t, ts.URL, wideHierarchy(0), "domain", 8)
	stepURL := ts.URL + "/v1/session/" + create.Session + "/step"

	// Base drift is rejected before the delta applies.
	bad := finestStep(8)
	bad.Base = strings.Repeat("ab", 32)
	r := post(t, stepURL, bad, nil)
	if r.StatusCode != http.StatusConflict || errorCode(t, r) != CodeSessionBaseMismatch {
		t.Fatalf("drifted base: status %d", r.StatusCode)
	}
	// The matching base is accepted.
	good := finestStep(8)
	good.Base = create.Signature
	if r := post(t, stepURL, good, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("pinned step: status %d", r.StatusCode)
	}

	for _, tc := range []struct {
		name string
		step SessionStepRequest
	}{
		{"keep with boxes", SessionStepRequest{Levels: []LevelOp{
			{Op: LevelKeep, Boxes: []Box{{Dim: 2, Lo: []int{0, 0}, Hi: []int{1, 1}}}}, {Op: LevelKeep}, {Op: LevelKeep}}}},
		{"unknown op", SessionStepRequest{Levels: []LevelOp{{Op: "merge"}, {Op: LevelKeep}, {Op: LevelKeep}}}},
		{"bad box geometry", SessionStepRequest{Levels: []LevelOp{
			{Op: LevelKeep}, {Op: LevelKeep}, {Op: LevelReplace, Boxes: []Box{{Dim: 5}}}}}},
		{"empty step", SessionStepRequest{}},
		{"invalid delta", SessionStepRequest{Levels: []LevelOp{
			{Op: LevelKeep}, {Op: LevelKeep}, {Op: LevelReplace, Boxes: []Box{
				{Dim: 2, Lo: []int{0, 100}, Hi: []int{64, 164}}, {Dim: 2, Lo: []int{32, 100}, Hi: []int{96, 164}}}}}}},
	} {
		if r := post(t, stepURL, tc.step, nil); r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, r.StatusCode)
		}
	}

	// Failed steps left the state where the pinned step put it.
	var stepResp PartitionResponse
	keep := SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelKeep}, {Op: LevelKeep}}}
	if r := post(t, stepURL, keep, &stepResp); r.StatusCode != http.StatusOK {
		t.Fatalf("keep step after failures: status %d", r.StatusCode)
	}
	wantSig, err := wideHierarchy(8).toGrid()
	if err != nil {
		t.Fatal(err)
	}
	if stepResp.Results[0].Signature != wantSig.Signature().String() {
		t.Fatal("failed steps moved the session state")
	}

	// Steps on a session that never existed answer 410.
	if r := post(t, ts.URL+"/v1/session/ffffffffffffffffffffffffffffffff/step", finestStep(8), nil); r.StatusCode != http.StatusGone {
		t.Fatalf("unknown session step: status %d", r.StatusCode)
	}
	// Delete a live session once: 204; again: 410.
	if r := del(t, ts.URL+"/v1/session/"+create.Session); r.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", r.StatusCode)
	}
	if r := del(t, ts.URL+"/v1/session/"+create.Session); r.StatusCode != http.StatusGone {
		t.Fatalf("double delete: status %d, want 410", r.StatusCode)
	}
	if r := post(t, stepURL, finestStep(8), nil); r.StatusCode != http.StatusGone {
		t.Fatalf("step after delete: status %d, want 410", r.StatusCode)
	}
}

// TestSessionStatefulPostmap covers the stateful path: a postmap
// session runs one long-lived partitioner instance server-side, so its
// step results equal a sequential in-process run over the same states,
// its results never touch the partition cache, and a failed step leaves
// the carried history untouched (subsequent results stay in sync with
// the reference, which never saw the failure).
func TestSessionStatefulPostmap(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	base := testHierarchy(0)
	create := createSession(t, ts.URL, base, "postmap(domain)", 8)
	if !create.Stateful {
		t.Fatalf("postmap session not marked stateful: %+v", create)
	}
	stepURL := ts.URL + "/v1/session/" + create.Session + "/step"

	ref, err := ParsePartitioner(create.Partitioner)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		wireH := testHierarchy(i * 4)
		var resp PartitionResponse
		r := post(t, stepURL, SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelReplace, Boxes: wireH.Levels[1]}}}, &resp)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d", i, r.StatusCode)
		}
		h, err := wireH.toGrid()
		if err != nil {
			t.Fatal(err)
		}
		a, err := ref.Partition(context.Background(), h, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := buildPartitionResult(h, h.Signature(), create.Partitioner, 8, a, CacheMiss)
		got := resp.Results[0]
		if got.Signature != want.Signature || got.Imbalance != want.Imbalance ||
			len(got.Fragments) != len(want.Fragments) {
			t.Fatalf("step %d: result diverged from sequential reference\ngot  %+v\nwant %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.Fragments, want.Fragments) {
			t.Fatalf("step %d: fragments diverged from sequential reference\ngot  %+v\nwant %+v", i, got.Fragments, want.Fragments)
		}
		if got.Cache != CacheMiss || got.Cached {
			t.Fatalf("step %d: stateful disposition %q cached=%v", i, got.Cache, got.Cached)
		}

		// Mid-sequence failure: an invalid delta must not advance the
		// carried history — the next iteration's reference comparison
		// would diverge if it did.
		if i == 3 {
			badStep := SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelReplace, Boxes: []Box{
				{Dim: 2, Lo: []int{0, 8}, Hi: []int{16, 32}}, {Dim: 2, Lo: []int{8, 8}, Hi: []int{24, 32}}}}}}
			if r := post(t, stepURL, badStep, nil); r.StatusCode != http.StatusBadRequest {
				t.Fatalf("invalid stateful step: status %d", r.StatusCode)
			}
		}
	}

	// Stateful results are not pure functions of their key: nothing may
	// have entered (or been served from) the partition cache.
	if hits, misses, shared := srv.Cache().Stats(); hits != 0 || misses != 0 || shared != 0 {
		t.Fatalf("stateful session touched the partition cache: hits=%d misses=%d shared=%d", hits, misses, shared)
	}
	if srv.Cache().Len() != 0 {
		t.Fatalf("stateful session stored %d cache entries", srv.Cache().Len())
	}
}

// TestSessionStepCancelLeavesStateUntouched pins the rollback contract
// end-to-end: a step whose client departs mid-compute produces no
// commit — the session still answers a step pinned to the pre-cancel
// base signature, and only successful steps are counted.
func TestSessionStepCancelLeavesStateUntouched(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Capture the step request's server-side context: the client's
	// departure reaches the parked leader asynchronously (the server's
	// connection reader cancels it), so the test must wait for that
	// context before releasing the leader or the compute may still see
	// a live ctx and legitimately commit.
	stepCtx := make(chan context.Context, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/step") {
			select {
			case stepCtx <- r.Context():
			default:
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	create := createSession(t, ts.URL, wideHierarchy(0), "domain", 8)
	stepURL := ts.URL + "/v1/session/" + create.Session + "/step"

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader {
			once.Do(func() { close(entered) })
			<-release
		}
	})

	body, err := json.Marshal(finestStep(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, stepURL, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close() //nolint:errcheck
		}
		errc <- err
	}()
	<-entered // the step is the flight leader, parked mid-compute
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled step returned a response")
	}
	<-(<-stepCtx).Done() // the disconnect has reached the handler's ctx
	close(release)
	srv.Cache().SetOnFlight(nil)

	// The failed step committed nothing: the base-pinned retry applies.
	retry := finestStep(8)
	retry.Base = create.Signature
	var resp PartitionResponse
	if r := post(t, stepURL, retry, &resp); r.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(r.Body)
		t.Fatalf("base-pinned retry: status %d\n%s", r.StatusCode, raw)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sessions.Steps != 1 {
		t.Fatalf("steps counter %d, want 1 (cancelled step must not count)", st.Sessions.Steps)
	}
	if st.Sessions.Errors == 0 {
		t.Fatal("cancelled step not accounted as a session endpoint error")
	}
}

// TestSessionStepEvictionRace pins the step-versus-eviction contract:
// a step already in flight on a session that is concurrently evicted
// from the table still completes with 200 — the handler holds the
// session object, which the table eviction does not destroy — and the
// token answers 410 from then on.
func TestSessionStepEvictionRace(t *testing.T) {
	srv, ts := newSmallSessionServer(t, 1)
	first := createSession(t, ts.URL, wideHierarchy(0), "domain", 8)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader {
			once.Do(func() { close(entered) })
			<-release
		}
	})

	body, err := json.Marshal(finestStep(8))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		r, err := http.Post(ts.URL+"/v1/session/"+first.Session+"/step", "application/json", bytes.NewReader(body))
		done <- result{r, err}
	}()
	<-entered // the step is parked mid-compute as the flight leader

	// Creating a second session in a one-entry table evicts the first
	// while its step is still running (creates never enter the cache,
	// so this does not park).
	second := createSession(t, ts.URL, wideHierarchy(16), "domain", 8)
	close(release)
	srv.Cache().SetOnFlight(nil)

	res := <-done
	if res.err != nil {
		t.Fatalf("parked step failed in transport: %v", res.err)
	}
	res.resp.Body.Close() //nolint:errcheck
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("step racing its own eviction: status %d, want 200", res.resp.StatusCode)
	}

	// The evicted token is gone; the survivor keeps working.
	if r := post(t, ts.URL+"/v1/session/"+first.Session+"/step", finestStep(16), nil); r.StatusCode != http.StatusGone {
		t.Fatalf("step after eviction: status %d, want 410", r.StatusCode)
	}
	if r := post(t, ts.URL+"/v1/session/"+second.Session+"/step", finestStep(24), nil); r.StatusCode != http.StatusOK {
		t.Fatalf("surviving session step: status %d", r.StatusCode)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sessions.Evicted != 1 || st.Sessions.Active != 1 || st.Sessions.Steps != 2 {
		t.Fatalf("stats after eviction race: %+v", st.Sessions)
	}
}

// TestSessionTableConcurrentStepsAndEvictions hammers the table from
// both sides under the race detector: steppers advancing their own
// sessions (re-creating on 410) while churners force evictions past
// the capacity bound. The invariant at rest: every created session was
// either evicted or is still active, and no request ever saw anything
// but 200 or the documented 410/409.
func TestSessionTableConcurrentStepsAndEvictions(t *testing.T) {
	_, ts := newSmallSessionServer(t, 2)

	const workers, iters = 4, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters)
	step := func(id string, x int) int {
		body, _ := json.Marshal(finestStep(x))
		r, err := http.Post(ts.URL+"/v1/session/"+id+"/step", "application/json", bytes.NewReader(body))
		if err != nil {
			errs <- err.Error()
			return 0
		}
		defer r.Body.Close()        //nolint:errcheck
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		return r.StatusCode
	}
	create := func() (string, bool) {
		body, _ := json.Marshal(SessionCreateRequest{Hierarchy: ptr(wideHierarchy(0)), Partitioner: "domain", NProcs: 8})
		r, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
		if err != nil {
			errs <- err.Error()
			return "", false
		}
		defer r.Body.Close() //nolint:errcheck
		var resp SessionCreateResponse
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil || resp.Session == "" {
			errs <- "create decoded no session"
			return "", false
		}
		return resp.Session, true
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id, ok := create()
			if !ok {
				return
			}
			for i := 1; i <= iters; i++ {
				switch code := step(id, 4*(i%8)+4); code {
				case http.StatusOK:
				case http.StatusGone:
					// Evicted by a sibling: the documented recovery.
					if id, ok = create(); !ok {
						return
					}
				default:
					errs <- http.StatusText(code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("worker error: %s", e)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sessions == nil {
		t.Fatal("no session stats after the hammer")
	}
	if st.Sessions.Active > 2 {
		t.Errorf("active sessions %d exceed the capacity bound 2", st.Sessions.Active)
	}
	if st.Sessions.Created != st.Sessions.Evicted+st.Sessions.Expired+uint64(st.Sessions.Active) {
		t.Errorf("session accounting does not balance: %+v", st.Sessions)
	}
}

func ptr[T any](v T) *T { return &v }

// TestSessionsOffWireIdentity pins the compatibility criterion: with no
// session requests the whole observable surface — stats body, endpoint
// map, error bodies — is byte-identical to a build without the session
// layer, and after use the session accounting stays out of the
// endpoints map.
func TestSessionsOffWireIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	raw := getRaw(t, ts.URL+"/v1/stats")
	if bytes.Contains(raw, []byte(`"sessions"`)) {
		t.Fatalf("unused session layer leaked into stats: %s", raw)
	}
	// Non-session errors carry no "code" field.
	r := post(t, ts.URL+"/v1/partition", PartitionRequest{Partitioner: "no-such"}, nil)
	body, _ := io.ReadAll(r.Body)
	if r.StatusCode != http.StatusBadRequest || bytes.Contains(body, []byte(`"code"`)) {
		t.Fatalf("plain error body changed: %d %s", r.StatusCode, body)
	}

	create := createSession(t, ts.URL, wideHierarchy(0), "domain", 8)
	post(t, ts.URL+"/v1/session/"+create.Session+"/step", finestStep(8), nil)

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sessions == nil || st.Sessions.Created != 1 || st.Sessions.Steps != 1 || st.Sessions.Requests < 2 {
		t.Fatalf("session stats after use: %+v", st.Sessions)
	}
	for name := range st.Endpoints {
		if strings.Contains(name, "session") {
			t.Fatalf("session endpoint %q leaked into the endpoints map", name)
		}
	}
}
