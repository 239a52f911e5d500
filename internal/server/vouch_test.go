package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// vouchHierarchy is a valid three-level wire hierarchy with two boxes on
// each level; v moves the refined levels, so that each v is a distinct
// regrid state.
func vouchHierarchy(v int) Hierarchy {
	box := func(x0, y0, x1, y1 int) Box { return Box{Dim: 2, Lo: []int{x0, y0}, Hi: []int{x1, y1}} }
	return Hierarchy{
		Domain:   box(0, 0, 16, 16),
		RefRatio: 2,
		Levels: [][]Box{
			{box(0, 0, 8, 16), box(8, 0, 16, 16)},
			{box(4, 4+v, 12, 12+v), box(12, 4+v, 20, 12+v)},
			{box(10, 10+2*v, 20, 20+2*v), box(26, 10+2*v, 36, 20+2*v)},
		},
	}
}

// vouchFaults are one-box mutations of a vouchHierarchy after the fault
// generator of grid's validate_test.go, each with the refusal it must
// draw; between them they draw every kind of refusal there is.
var vouchFaults = []struct {
	name, refusal string
	mutate        func(h *Hierarchy)
}{
	{"duplicate", "overlapping", func(h *Hierarchy) { h.Levels[1][1] = h.Levels[1][0] }},
	{"grown", "overlapping", func(h *Hierarchy) { h.Levels[2][0].Hi = []int{27, 21} }},
	{"shifted far", "outside level domain", func(h *Hierarchy) { h.Levels[1][0].Lo[0] += 1000; h.Levels[1][0].Hi[0] += 1000 }},
	{"shifted out of the parent", "not nested", func(h *Hierarchy) { h.Levels[2][0] = Box{Dim: 2, Lo: []int{0, 0}, Hi: []int{4, 4}} }},
	{"missing", "does not cover", func(h *Hierarchy) { h.Levels[0] = h.Levels[0][1:] }},
	{"short", "does not cover", func(h *Hierarchy) { h.Levels[0][1].Hi[0]-- }},
	{"inverted", "not nested", func(h *Hierarchy) { h.Levels[1][0].Lo, h.Levels[1][0].Hi = h.Levels[1][0].Hi, h.Levels[1][0].Lo }},
	{"other dimensionality", "dim must be 2", func(h *Hierarchy) { h.Levels[2][1] = Box{Dim: 3, Lo: []int{26, 10, 0}, Hi: []int{36, 20, 1}} }},
}

// serve answers one request in process.
func serve(srv *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// statsOf reads srv's /v1/stats.
func statsOf(t *testing.T, srv *Server) StatsResponse {
	t.Helper()
	var st StatsResponse
	if err := json.Unmarshal(serve(srv, http.MethodGet, "/v1/stats", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// moved is what the counters of /v1/stats did between two readings.
func moved(before, after StatsResponse) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hits %+d misses %+d shared %+d entries %+d",
		after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses,
		after.Cache.Shared-before.Cache.Shared, after.Cache.Entries-before.Cache.Entries)
	for _, name := range slices.Sorted(maps.Keys(after.Endpoints)) {
		a, o := after.Endpoints[name], before.Endpoints[name]
		fmt.Fprintf(&b, "; %s requests %+d errors %+d", name, a.Requests-o.Requests, a.Errors-o.Errors)
	}
	return b.String()
}

// TestInvalidHierarchyNeverHits: /v1/partition validates only what its
// cache does not vouch for, so a hierarchy one box away from a resident
// one must still be refused, alone and in a batch whose other members
// are resident, exactly as a cold server refuses it. A warm server and
// a cold twin get the same invalid posts: every status and body must
// match, their /v1/stats must move alike, and neither may count a hit.
// Then one accepted repeat moves the warm server's hits, and only its.
func TestInvalidHierarchyNeverHits(t *testing.T) {
	warm, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := func(nprocs int, hs ...Hierarchy) string {
		return mustMarshal(t, PartitionRequest{Hierarchies: hs, Partitioner: "domain", NProcs: nprocs})
	}
	procs := []int{2, 4, 8}
	for _, np := range procs {
		for v := range 3 {
			if rec := serve(warm, http.MethodPost, "/v1/partition", body(np, vouchHierarchy(v))); rec.Code != http.StatusOK {
				t.Fatalf("warm-up v%d nprocs %d: %d %s", v, np, rec.Code, rec.Body)
			}
		}
	}
	warmBefore, coldBefore := statsOf(t, warm), statsOf(t, cold)
	if warmBefore.Cache.Entries != 9 {
		t.Fatalf("warm-up left %d entries, want 9", warmBefore.Cache.Entries)
	}

	posts := 0
	for _, np := range procs {
		for v := range 3 {
			for _, f := range vouchFaults {
				bad := vouchHierarchy(v)
				f.mutate(&bad)
				for _, batch := range []struct {
					hs []Hierarchy
					at int // where bad is
				}{
					{[]Hierarchy{bad}, 0},
					{[]Hierarchy{vouchHierarchy(v), bad}, 1},
					{[]Hierarchy{bad, vouchHierarchy((v + 1) % 3)}, 0},
					{[]Hierarchy{vouchHierarchy((v + 2) % 3), vouchHierarchy(v), bad}, 2},
				} {
					req := body(np, batch.hs...)
					w, c := serve(warm, http.MethodPost, "/v1/partition", req), serve(cold, http.MethodPost, "/v1/partition", req)
					posts++
					if w.Code != c.Code || w.Body.String() != c.Body.String() {
						t.Fatalf("%s, v%d, nprocs %d, batch of %d: warm %d %s, cold %d %s", f.name, v, np, len(batch.hs), w.Code, w.Body, c.Code, c.Body)
					}
					if want := fmt.Sprintf("hierarchy %d:", batch.at); w.Code != http.StatusBadRequest ||
						!strings.Contains(w.Body.String(), want) || !strings.Contains(w.Body.String(), f.refusal) {
						t.Fatalf("%s, v%d, nprocs %d: %d %s, want a 400 for %q naming %q", f.name, v, np, w.Code, w.Body, f.refusal, want)
					}
				}
			}
		}
	}
	warmAfter, coldAfter := statsOf(t, warm), statsOf(t, cold)
	if got, want := moved(warmBefore, warmAfter), moved(coldBefore, coldAfter); got != want {
		t.Fatalf("after %d invalid posts the warm server's stats moved %s, the cold twin's %s", posts, got, want)
	}
	if got := moved(warmBefore, warmAfter); !strings.HasPrefix(got, "hits +0 misses +0 shared +0 entries +0;") {
		t.Fatalf("invalid posts moved the cache: %s", got)
	}

	req := body(4, vouchHierarchy(1))
	serve(warm, http.MethodPost, "/v1/partition", req)
	serve(cold, http.MethodPost, "/v1/partition", req)
	if w, c := statsOf(t, warm).Cache, statsOf(t, cold).Cache; w.Hits != warmAfter.Cache.Hits+1 || c.Hits != coldAfter.Cache.Hits || c.Misses != coldAfter.Cache.Misses+1 {
		t.Errorf("an accepted repeat: warm hits %d → %d, cold hits %d → %d and misses %d → %d; want +1, +0 and +1",
			warmAfter.Cache.Hits, w.Hits, coldAfter.Cache.Hits, c.Hits, coldAfter.Cache.Misses, c.Misses)
	}
}
