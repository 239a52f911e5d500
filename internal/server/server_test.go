package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/tier"
	"samr/internal/trace"
)

// testHierarchy builds a valid two-level wire hierarchy whose level-1
// patch is parameterized so tests can produce distinct regrid states.
func testHierarchy(patchX int) Hierarchy {
	return Hierarchy{
		Domain:   Box{Dim: 2, Lo: []int{0, 0}, Hi: []int{32, 32}},
		RefRatio: 2,
		Levels: [][]Box{
			{{Dim: 2, Lo: []int{0, 0}, Hi: []int{32, 32}}},
			{{Dim: 2, Lo: []int{2 * patchX, 8}, Hi: []int{2*patchX + 16, 32}}},
		},
	}
}

// nonPlanarHierarchies are the wire hierarchies the 2-D rule refuses: the
// 16³ domain with one refined 16³ patch that PR 14 found answered with a
// wrong assignment, a one-dimensional one, and a 2-D one whose refined
// level carries a single 3-D box.
func nonPlanarHierarchies() map[string]Hierarchy {
	mixed := testHierarchy(1)
	mixed.Levels[1] = []Box{{Dim: 3, Lo: []int{2, 8, 0}, Hi: []int{18, 32, 1}}}
	return map[string]Hierarchy{
		"dim 3": {
			Domain:   Box{Dim: 3, Lo: []int{0, 0, 0}, Hi: []int{16, 16, 16}},
			RefRatio: 2,
			Levels: [][]Box{
				{{Dim: 3, Lo: []int{0, 0, 0}, Hi: []int{16, 16, 16}}},
				{{Dim: 3, Lo: []int{8, 8, 8}, Hi: []int{24, 24, 24}}},
			},
		},
		"dim 1": {
			Domain:   Box{Dim: 1, Lo: []int{0}, Hi: []int{16}},
			RefRatio: 2,
			Levels:   [][]Box{{{Dim: 1, Lo: []int{0}, Hi: []int{16}}}},
		},
		"mixed": mixed,
	}
}

// volumeGrid is the "dim 3" hierarchy as a sealed snapshot or a .trc
// file would carry it, past the wire's own check.
func volumeGrid() *grid.Hierarchy {
	cube := func(lo, hi int) geom.Box {
		return geom.Box{Lo: geom.IntVect{lo, lo, lo}, Hi: geom.IntVect{hi, hi, hi}, Dim: 3}
	}
	h := grid.NewHierarchy(cube(0, 16), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{cube(8, 24)}})
	return h
}

// testTrace builds a small synthetic trace of moving refinement.
func testTrace(steps int) *trace.Trace {
	dom := geom.NewBox2(0, 0, 32, 32)
	tr := &trace.Trace{App: "SYNTH", RefRatio: 2, MaxLevels: 2, Domain: dom}
	for s := 0; s < steps; s++ {
		h := grid.NewHierarchy(dom, 2)
		x := 2 * (s % 8)
		h.Levels = append(h.Levels, grid.Level{
			Boxes: geom.BoxList{geom.NewBox2(2*x, 8, 2*x+16, 40)},
		})
		tr.Append(s, float64(s)*0.01, h)
	}
	return tr
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, req, resp any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
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
	r.Body = io.NopCloser(bytes.NewReader(raw))
	return r
}

func TestPartitionEndpointCacheHitMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(1)
	req.Hierarchy = &h

	var resp PartitionResponse
	r := post(t, ts.URL+"/v1/partition", req, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", r.StatusCode)
	}
	if got := r.Header.Get("X-Samr-Cache"); got != "miss" {
		t.Errorf("first request X-Samr-Cache = %q, want miss", got)
	}
	if len(resp.Results) != 1 || resp.Results[0].Cached {
		t.Fatalf("first request results = %+v, want one uncached", resp.Results)
	}
	sig := resp.Results[0].Signature
	if sig == "" || r.Header.Get("X-Samr-Signature") != sig {
		t.Errorf("signature header %q vs body %q", r.Header.Get("X-Samr-Signature"), sig)
	}
	wantFrags := resp.Results[0].Fragments

	// Identical hierarchy -> cache hit with identical decomposition.
	var resp2 PartitionResponse
	r2 := post(t, ts.URL+"/v1/partition", req, &resp2)
	if got := r2.Header.Get("X-Samr-Cache"); got != "hit" {
		t.Errorf("repeat request X-Samr-Cache = %q, want hit", got)
	}
	if !resp2.Results[0].Cached || resp2.Results[0].Signature != sig {
		t.Errorf("repeat request not served from cache: %+v", resp2.Results[0])
	}
	if fmt.Sprint(resp2.Results[0].Fragments) != fmt.Sprint(wantFrags) {
		t.Error("cached decomposition differs from computed one")
	}
	if hits := r2.Header.Get("X-Samr-Cache-Hits"); hits != "1" {
		t.Errorf("X-Samr-Cache-Hits = %q, want 1", hits)
	}

	// Any box mutation changes the signature -> miss.
	h3 := testHierarchy(2)
	req.Hierarchy = &h3
	var resp3 PartitionResponse
	r3 := post(t, ts.URL+"/v1/partition", req, &resp3)
	if got := r3.Header.Get("X-Samr-Cache"); got != "miss" {
		t.Errorf("mutated request X-Samr-Cache = %q, want miss", got)
	}
	if resp3.Results[0].Signature == sig {
		t.Error("mutated hierarchy kept the signature")
	}

	// Same hierarchy, different nprocs -> distinct cache slot.
	req.Hierarchy = &h
	req.NProcs = 4
	r4 := post(t, ts.URL+"/v1/partition", req, nil)
	if got := r4.Header.Get("X-Samr-Cache"); got != "miss" {
		t.Errorf("different-nprocs request X-Samr-Cache = %q, want miss", got)
	}
}

func TestPartitionBatchAndAliases(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PartitionRequest{
		Hierarchies: []Hierarchy{testHierarchy(0), testHierarchy(3), testHierarchy(0)},
		Partitioner: "nature+fable",
		NProcs:      8,
	}
	var resp PartitionResponse
	r := post(t, ts.URL+"/v1/partition", req, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	// The duplicate submission hits within the same batch or across it;
	// either way signatures of identical states agree and the alias
	// expanded to the canonical name.
	if resp.Results[0].Signature != resp.Results[2].Signature {
		t.Error("identical hierarchies produced different signatures")
	}
	if resp.Results[0].Signature == resp.Results[1].Signature {
		t.Error("distinct hierarchies produced equal signatures")
	}
	if want := "nature+fable-hilbert-u2-q4-frac"; resp.Results[0].Partitioner != want {
		t.Errorf("alias expanded to %q, want %q", resp.Results[0].Partitioner, want)
	}
	for i, res := range resp.Results {
		if len(res.Fragments) == 0 || len(res.Loads) != 8 {
			t.Errorf("result %d incomplete: %d fragments, %d loads", i, len(res.Fragments), len(res.Loads))
		}
	}
}

func TestSelectEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SelectRequest{Hierarchies: []Hierarchy{testHierarchy(0), testHierarchy(1), testHierarchy(2)}}
	var resp SelectResponse
	r := post(t, ts.URL+"/v1/select", req, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(resp.Selections) != 3 {
		t.Fatalf("got %d selections, want 3", len(resp.Selections))
	}
	for i, sel := range resp.Selections {
		if sel.Partitioner == "" || sel.Points <= 0 {
			t.Errorf("selection %d incomplete: %+v", i, sel)
		}
	}
}

func TestSimulateAndTracesEndpoints(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "synth.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, testTrace(6)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts := newTestServer(t, Config{TraceDir: dir})

	r, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces TracesResponse
	if err := json.NewDecoder(r.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(traces.Traces) != 1 || traces.Traces[0].Name != "synth" || traces.Traces[0].Snapshots != 6 {
		t.Fatalf("traces = %+v", traces.Traces)
	}

	var resp SimulateResponse
	rr := post(t, ts.URL+"/v1/simulate", SimulateRequest{
		Trace: "synth", Partitioner: "domain", NProcs: 8, IncludeSteps: true,
	}, &resp)
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d", rr.StatusCode)
	}
	if resp.Snapshots != 6 || len(resp.Steps) != 6 || resp.TotalEstTime <= 0 {
		t.Fatalf("simulate response = %+v", resp)
	}

	// Meta-driven simulation over the same trace.
	var metaResp SimulateResponse
	post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: "synth", Meta: true, NProcs: 8}, &metaResp)
	if metaResp.Snapshots != 6 || metaResp.Partitioner == "" {
		t.Fatalf("meta simulate response = %+v", metaResp)
	}

	// A trace dropped into the directory after startup is found on
	// demand, without touching /v1/traces first.
	f2, err := os.Create(filepath.Join(dir, "late.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f2, testTrace(3)); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	var lateResp SimulateResponse
	rl := post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: "late", Partitioner: "patch-lpt", NProcs: 4}, &lateResp)
	if rl.StatusCode != http.StatusOK || lateResp.Snapshots != 3 {
		t.Fatalf("on-demand trace load failed: status %d resp %+v", rl.StatusCode, lateResp)
	}
}

func TestCorruptTraceSkippedNotFatal(t *testing.T) {
	// A corrupt .trc must not take the daemon down at startup, and the
	// healthy traces alongside it must keep serving.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.trc"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "good.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, testTrace(3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts := newTestServer(t, Config{TraceDir: dir})
	var resp SimulateResponse
	if r := post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: "good", Partitioner: "domain", NProcs: 4}, &resp); r.StatusCode != http.StatusOK {
		t.Errorf("healthy trace: status %d", r.StatusCode)
	}
	if r := post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: "bad", Partitioner: "domain", NProcs: 4}, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("corrupt trace: status %d, want 404", r.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{TraceDir: dir})
	h := testHierarchy(0)

	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown partitioner", "/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "quantum", NProcs: 4}, http.StatusBadRequest},
		{"no hierarchy", "/v1/partition", PartitionRequest{Partitioner: "domain", NProcs: 4}, http.StatusBadRequest},
		{"bad nprocs", "/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: -2}, http.StatusBadRequest},
		{"unknown trace", "/v1/simulate", SimulateRequest{Trace: "nope", Partitioner: "domain", NProcs: 4}, http.StatusNotFound},
		{"traversal trace name", "/v1/simulate", SimulateRequest{Trace: "../../etc/passwd", Partitioner: "domain", NProcs: 4}, http.StatusNotFound},
	}
	for _, c := range cases {
		if r := post(t, ts.URL+c.url, c.body, nil); r.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, r.StatusCode, c.want)
		}
	}

	// Structurally invalid hierarchy: level 1 outside the domain.
	bad := testHierarchy(0)
	bad.Levels[1][0].Hi = []int{1000, 1000}
	if r := post(t, ts.URL+"/v1/partition", PartitionRequest{Hierarchy: &bad, Partitioner: "domain", NProcs: 4}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid hierarchy: status %d, want 400", r.StatusCode)
	}

	// Malformed JSON.
	r, err := http.Post(ts.URL+"/v1/partition", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", r.StatusCode)
	}
}

// TestBodyLimit pins Config.MaxBodyBytes on the three routes that read
// a body of any size: a request one byte over the limit answers 413 and
// leaves the cache, the session and the disk store as they were, and a
// body of exactly the limit is served.
func TestBodyLimit(t *testing.T) {
	const limit = 1 << 10
	srv, ts := newTestServer(t, Config{MaxBodyBytes: limit, TierDir: t.TempDir()})
	// padded marshals v behind leading spaces, which the decoder has to
	// read, to exactly n bytes.
	padded := func(v any, n int) []byte {
		raw, err := json.Marshal(v)
		if err != nil || len(raw) > n {
			t.Fatalf("fixture is %d bytes, over %d (%v)", len(raw), n, err)
		}
		return append(bytes.Repeat([]byte(" "), n-len(raw)), raw...)
	}
	send := func(method, path string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		return resp.StatusCode
	}

	h := testHierarchy(1)
	preq := PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4}
	if code := send("POST", "/v1/partition", padded(preq, limit+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("partition post over the limit = %d, want 413", code)
	}
	if _, misses, _ := srv.Cache().Stats(); misses != 0 || srv.Cache().Len() != 0 {
		t.Errorf("oversized post reached the cache: %d misses, %d entries", misses, srv.Cache().Len())
	}
	if code := send("POST", "/v1/partition", padded(preq, limit)); code != http.StatusOK {
		t.Errorf("partition post of exactly the limit = %d, want 200", code)
	}

	create := createSession(t, ts.URL, h, "domain", 4)
	step := SessionStepRequest{Levels: []LevelOp{
		{Op: LevelKeep},
		{Op: LevelReplace, Boxes: testHierarchy(2).Levels[1]},
	}}
	stepPath := "/v1/session/" + create.Session + "/step"
	if code := send("POST", stepPath, padded(step, limit+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("session step over the limit = %d, want 413", code)
	}
	// The base pin holds only if the refused step committed nothing.
	step.Base = create.Signature
	if code := send("POST", stepPath, padded(step, limit)); code != http.StatusOK {
		t.Errorf("session step of exactly the limit, pinned to the created state = %d, want 200", code)
	}

	gh, err := h.toGrid()
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.NewDomainSFC().Partition(context.Background(), gh, 64)
	if err != nil {
		t.Fatal(err)
	}
	blob := tier.EncodeAssignment(a)
	if len(blob) <= limit {
		t.Fatalf("fixture blob is %d bytes, want over %d", len(blob), limit)
	}
	stored := srv.Tier().Disk().Len()
	if code := send("PUT", "/v1/tier/"+tier.Key("oversized"), blob); code != http.StatusRequestEntityTooLarge {
		t.Errorf("tier PUT over the limit = %d, want 413", code)
	}
	if got := srv.Tier().Disk().Len(); got != stored {
		t.Errorf("oversized tier PUT reached the disk store: %d entries, was %d", got, stored)
	}
}

// TestConcurrentMixedRequests drives all endpoints from many goroutines
// at once; run under -race it is the acceptance check that the cache,
// registry, and pool fan-out are data-race free.
func TestConcurrentMixedRequests(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "synth.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, testTrace(4)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	srv, ts := newTestServer(t, Config{TraceDir: dir, CacheSize: 8})

	const workers = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 3 {
				case 0:
					h := testHierarchy(i % 4) // repeats force cache hits under contention
					var resp PartitionResponse
					r := post(t, ts.URL+"/v1/partition", PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 8}, &resp)
					if r.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("partition status %d", r.StatusCode)
					}
				case 1:
					h := testHierarchy(i % 4)
					var resp SelectResponse
					r := post(t, ts.URL+"/v1/select", SelectRequest{Hierarchy: &h}, &resp)
					if r.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("select status %d", r.StatusCode)
					}
				case 2:
					var resp SimulateResponse
					r := post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: "synth", Partitioner: "nature+fable", NProcs: 4}, &resp)
					if r.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("simulate status %d", r.StatusCode)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	hits, misses, shared := srv.Cache().Stats()
	if hits == 0 {
		t.Errorf("concurrent repeated states produced no cache hits (hits=%d misses=%d shared=%d)", hits, misses, shared)
	}
}

// TestVolumetricRequests pins the 2-D rule at every door a hierarchy
// can come in by: a dim-3, dim-1 or mixed-dim hierarchy answers 400 on
// /v1/select, /v1/partition (single and batch) and session create,
// whatever the partitioner, and so does a step whose replace carries a
// 3-D box, leaving the session as it was; a sealed snapshot carrying one
// is a resume miss and is quarantined; a .trc carrying one does not
// load. Nothing refused is cached, stored or partitioned.
func TestVolumetricRequests(t *testing.T) {
	traceDir := t.TempDir()
	srv, ts := newTestServer(t, Config{TierDir: t.TempDir(), TierSessions: true, TraceDir: traceDir})
	good := testHierarchy(0)
	for name, wire := range nonPlanarHierarchies() {
		for _, tc := range []struct {
			path string
			body any
		}{
			{"/v1/select", SelectRequest{Hierarchy: &wire}},
			{"/v1/partition", PartitionRequest{Hierarchy: &wire, Partitioner: "domain", NProcs: 8}},
			{"/v1/partition", PartitionRequest{Hierarchy: &wire, Partitioner: "patch-lpt", NProcs: 8}},
			{"/v1/partition", PartitionRequest{Hierarchies: []Hierarchy{good, wire}, Partitioner: "postmap(domain)", NProcs: 8}},
			{"/v1/session", SessionCreateRequest{Hierarchy: &wire, Partitioner: "patch-lpt", NProcs: 8}},
		} {
			r := post(t, ts.URL+tc.path, tc.body, nil)
			var e ErrorResponse
			if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
				t.Fatalf("%s %s: body not the documented JSON error: %v", name, tc.path, err)
			}
			if r.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "dim") {
				t.Errorf("%s %s: status %d error %q, want 400 naming the dimension", name, tc.path, r.StatusCode, e.Error)
			}
		}
	}
	if srv.Cache().Len() != 0 || srv.Tier().Disk().Len() != 0 {
		t.Errorf("refused requests left %d cache and %d tier entries", srv.Cache().Len(), srv.Tier().Disk().Len())
	}

	// A step whose replace carries a 3-D box: 400, and the session
	// still holds what it held.
	create := createSession(t, ts.URL, good, "domain", 8)
	stepURL := ts.URL + "/v1/session/" + create.Session + "/step"
	bad := SessionStepRequest{Levels: []LevelOp{
		{Op: LevelKeep},
		{Op: LevelReplace, Boxes: []Box{{Dim: 3, Lo: []int{0, 8, 0}, Hi: []int{16, 32, 1}}}},
	}}
	if r := post(t, stepURL, bad, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("3-D replace: status %d, want 400", r.StatusCode)
	}
	var kept PartitionResponse
	keep := SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelKeep}}}
	if r := post(t, stepURL, keep, &kept); r.StatusCode != http.StatusOK || kept.Results[0].Signature != create.Signature {
		t.Errorf("keep step after the refused one: status %d, signature moved off %s", r.StatusCode, create.Signature)
	}

	// A sealed, self-consistent snapshot of a volumetric session.
	hv := volumeGrid()
	id := strings.Repeat("cd", 16)
	key := sessionSnapshotKey(id)
	if err := srv.Tier().Disk().Put(key, tier.EncodeSessionSnapshot(&tier.SessionSnapshot{
		Name: "patch-lpt", NProcs: 8, Hierarchy: hv, Sig: hv.Signature(),
	})); err != nil {
		t.Fatal(err)
	}
	if r := post(t, ts.URL+"/v1/session/"+id+"/step", keep, nil); r.StatusCode != http.StatusGone {
		t.Errorf("resume from a volumetric snapshot: status %d, want 410", r.StatusCode)
	}
	if diskHas(srv, key) {
		t.Error("volumetric snapshot not quarantined")
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Sessions == nil || st.Sessions.ResumeMisses != 1 || st.Sessions.Resumed != 0 {
		t.Errorf("session stats = %+v, want 1 resume miss and 0 resumed", st.Sessions)
	}

	// A .trc carrying one.
	tr := &trace.Trace{App: "VOL", RefRatio: 2, MaxLevels: 2, Domain: hv.Domain}
	tr.Append(0, 0, hv)
	f, err := os.Create(filepath.Join(traceDir, "vol.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := srv.Registry().loadFile("vol"); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Errorf("loading a volumetric .trc: %v, want an error naming the dimension", err)
	}
	if r := post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: "vol", Partitioner: "patch-lpt", NProcs: 4}, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("simulate over a volumetric .trc: status %d, want 404", r.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", r.StatusCode)
	}
}
