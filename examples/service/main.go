// The service example is a quickstart for the samrd partitioning
// service, in process: it generates a reduced-scale application trace,
// stands up the server on a loopback listener, and walks the endpoints a
// client meets first — listing traces, meta-partitioner selection,
// cached partitioning (the miss -> hit flip on a repeated regrid state),
// one streaming-session step (a per-level delta instead of a full
// post), and the operational counters of /v1/stats.
//
// What the service does under failure — deadlines and cancellation,
// overload shedding and retry, the fleet tier, session failover — is
// asserted by the suites of internal/server (cancel_test.go,
// admit_test.go, tier_test.go, TestChaosSessionTakeover), which is where
// to read how a well-behaved client recovers.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"

	"samr/internal/apps"
	"samr/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
}

func run() error {
	// A real deployment runs `samrd -traces <dir>` and registers traces
	// as files; in process we inject the trace directly.
	tr, err := apps.QuickTrace(context.Background(), "TP2D")
	if err != nil {
		return err
	}
	s, err := server.New(server.Config{DefaultProcs: 8})
	if err != nil {
		return err
	}
	s.Registry().Register("tp2d-quick", tr)
	ts := httptest.NewServer(s)
	defer ts.Close()
	fmt.Printf("samrd serving on %s\n\n", ts.URL)

	// GET /v1/traces
	var traces server.TracesResponse
	if _, err := call(http.MethodGet, ts.URL+"/v1/traces", nil, &traces); err != nil {
		return err
	}
	for _, ti := range traces.Traces {
		fmt.Printf("trace %-12s app=%s snapshots=%d levels<=%d\n", ti.Name, ti.App, ti.Snapshots, ti.MaxLevels)
	}

	// POST /v1/select over the first snapshots: the regrid sequence is
	// classified through one meta-partitioner, hysteresis included.
	wire := make([]server.Hierarchy, 6)
	for i := range wire {
		wire[i] = server.FromHierarchy(tr.Snapshots[i].H)
	}
	var sel server.SelectResponse
	if _, err := call(http.MethodPost, ts.URL+"/v1/select", server.SelectRequest{Hierarchies: wire}, &sel); err != nil {
		return err
	}
	fmt.Println("\nmeta-partitioner selection over the first regrid states:")
	for i, c := range sel.Selections {
		fmt.Printf("  step %2d: dimI=%.3f dimII=%.3f dimIII=%.3f -> %s\n", i, c.DimI, c.DimII, c.DimIII, c.Partitioner)
	}

	// POST /v1/partition twice with the same hierarchy: the second is a
	// content-addressed cache hit.
	first, last := wire[0], wire[len(wire)-1]
	preq := server.PartitionRequest{Hierarchy: &last, Partitioner: "nature+fable", NProcs: 8}
	fmt.Println("\npartitioning the same regrid state twice:")
	for i := 0; i < 2; i++ {
		var presp server.PartitionResponse
		hdr, err := call(http.MethodPost, ts.URL+"/v1/partition", preq, &presp)
		if err != nil {
			return err
		}
		r := presp.Results[0]
		fmt.Printf("  request %d: cache=%-4s sig=%.12s fragments=%d imbalance=%.1f%%\n",
			i+1, hdr.Get("X-Samr-Cache"), r.Signature, len(r.Fragments), r.Imbalance)
	}

	// POST /v1/session uploads a hierarchy once; a step then sends one
	// op per level — keep where the boxes did not change, replace where
	// they did — and answers what the full post of the resulting state
	// would: here the state just partitioned, so a cache hit.
	var sess server.SessionCreateResponse
	create := server.SessionCreateRequest{Hierarchy: &first, Partitioner: "nature+fable", NProcs: 8}
	if _, err := call(http.MethodPost, ts.URL+"/v1/session", create, &sess); err != nil {
		return err
	}
	step := server.SessionStepRequest{Base: sess.Signature, Levels: make([]server.LevelOp, len(last.Levels))}
	for l, boxes := range last.Levels {
		step.Levels[l] = server.LevelOp{Op: server.LevelReplace, Boxes: boxes}
		if l < len(first.Levels) && reflect.DeepEqual(first.Levels[l], boxes) {
			step.Levels[l] = server.LevelOp{Op: server.LevelKeep}
		}
	}
	var sresp server.PartitionResponse
	hdr, err := call(http.MethodPost, ts.URL+"/v1/session/"+sess.Session+"/step", step, &sresp)
	if err != nil {
		return err
	}
	fmt.Printf("\nsession %.8s step: cache=%-4s sig=%.12s fragments=%d\n",
		sess.Session, hdr.Get("X-Samr-Cache"), sresp.Results[0].Signature, len(sresp.Results[0].Fragments))

	// GET /v1/stats: the operational counters behind the cache headers.
	var st server.StatsResponse
	if _, err := call(http.MethodGet, ts.URL+"/v1/stats", nil, &st); err != nil {
		return err
	}
	fmt.Printf("\n/v1/stats: cache hits=%d misses=%d shared=%d (%d/%d entries), pool=%d, sessions=%d\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Shared, st.Cache.Entries, st.Cache.Capacity,
		st.PoolSize, st.Sessions.Active)
	return nil
}

// call sends in as JSON (the GET handlers ignore a body) and decodes a
// 200 into out.
func call(method, url string, in, out any) (http.Header, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		json.NewDecoder(r.Body).Decode(&e) //nolint:errcheck
		return nil, fmt.Errorf("%s: %s (%s)", url, r.Status, e.Error)
	}
	return r.Header, json.NewDecoder(r.Body).Decode(out)
}
