package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"samr/internal/admit"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/server"
	"samr/internal/tier"
)

// The traced run of a service workload measures every layer from
// outside the program, three ways, with the request sequence of the
// untraced run:
//
//  1. the real daemons again, with a client-side root span per request
//     and /v1/stats scraped before and after (the daemons' own counts);
//  2. the same requests through in-process servers (server.New +
//     ServeHTTP + a recorder): the handler time without loopback,
//     net/http and the process boundary;
//  3. the stages of each request replayed through the public functions
//     of the layers it passes, each a child span of the request's
//     replay span.
//
// What the handler takes beyond the replayed stages is
// server.residual_us (mux, middleware, headers, wire<->grid conversion,
// result build, and for the fleet the peer hop); what a real request
// takes beyond the handler is http.overhead_us, the floor no layer
// change can move. Stages + residual + overhead add up to the untraced
// op_p50_ms by construction.

// inProcess sends the schedule through in-process servers, a
// "server.handler" root span per request, and returns the answer of
// every request of the timed window. Fleet members listen on loopback
// so that the peer protocol between them works as it does between
// daemons; the benchmark's own requests go straight to ServeHTTP.
func (w *serviceWorkload) inProcess(sched schedule, dir string, rec *recorder) (handlerUS []float64, answers [][]byte, err error) {
	listeners := make([]net.Listener, sched.members)
	urls := make([]string, sched.members)
	for i := range listeners {
		if listeners[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, nil, err
		}
		defer listeners[i].Close()
		urls[i] = "http://" + listeners[i].Addr().String()
	}
	servers := make([]*server.Server, sched.members)
	for i := range servers {
		cfg := w.config(dir, i, urls)
		cfg.RequestTimeout = 2 * time.Minute // samrd's flag default
		if servers[i], err = server.New(cfg); err != nil {
			return nil, nil, err
		}
		defer servers[i].Close()
		hs := &http.Server{Handler: servers[i]}
		go hs.Serve(listeners[i]) //nolint:errcheck // ends with Close below
		defer hs.Close()
	}
	tokens := make([]string, sched.slots)
	send := func(o *op) (*httptest.ResponseRecorder, error) {
		path := "/v1/partition"
		switch o.Kind {
		case opCreate:
			path = "/v1/session"
		case opStep:
			path = "/v1/session/" + tokens[o.Slot] + "/step"
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(o.Body))
		resp := httptest.NewRecorder()
		id := rec.begin(0, "server.handler")
		servers[o.Member].ServeHTTP(resp, req)
		rec.end(id)
		if resp.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process %s: status %d: %s", kindName(o.Kind), resp.Code, resp.Body.String())
		}
		if o.Kind == opCreate {
			tokens[o.Slot] = resp.Header().Get(server.SessionHeader)
		} else if got := resp.Header().Get("X-Samr-Cache"); got != o.Want {
			return nil, fmt.Errorf("in-process %s: disposition %q, want %q", kindName(o.Kind), got, o.Want)
		}
		if o.Timed {
			s := rec.spans[id-1]
			handlerUS = append(handlerUS, float64(s.End-s.Start)/1e3)
		}
		return resp, nil
	}
	for i := range sched.warm {
		if _, err := send(&sched.warm[i]); err != nil {
			return nil, nil, err
		}
	}
	answers = make([][]byte, len(sched.run))
	for i := range sched.run {
		resp, err := send(&sched.run[i])
		if err != nil {
			return nil, nil, err
		}
		answers[i] = resp.Body.Bytes()
	}
	return handlerUS, answers, nil
}

// replay runs, for every timed request, the layer functions the daemon
// runs for it, each as a child span of a "replay" root, and returns
// the sizes it saw on the way. answers are the in-process answers of
// the same requests. The chain caches under the partitioners are
// process-wide and were filled by inProcess, so partition.compute is
// the warm cost, as it is for all but the first sight of a hierarchy in
// the daemon.
func replay(ctx context.Context, sched schedule, answers [][]byte, dir string, rec *recorder, m map[string]float64) error {
	cache := server.NewPartitionCache(cacheSize)
	gate := admit.New(admit.Config{MaxInFlight: 2, QueueDepth: 8})
	store, err := tier.OpenDiskStore(filepath.Join(dir, "replay-tier"), 0)
	if err != nil {
		return err
	}
	members := make([]string, fleetMembers)
	for i := range members {
		members[i] = fmt.Sprintf("http://127.0.0.1:%d", firstPort+i)
	}
	ring := tier.NewRing(members[0], members)
	name := ""
	if p, err := server.ParsePartitioner(spec); err == nil {
		name = p.Name()
	}
	tracked := make([]*grid.Hierarchy, sched.slots)
	known := make(map[server.CacheKey]*partition.Assignment) // results the daemon would have cached or shared
	var reqBytes, respBytes, frags, blobBytes, blobs, kept, levels, timed float64

	for i := range sched.run {
		o := &sched.run[i]
		h := o.St.H
		if o.Kind == opCreate {
			tracked[o.Slot] = h.Clone()
			tracked[o.Slot].TrackSignature()
			continue
		}
		// Outside the spans: what the replay needs but the daemon gets
		// differently (its own decoded request, its own result).
		var resp server.PartitionResponse
		if err := json.Unmarshal(answers[i], &resp); err != nil {
			return err
		}
		key := server.CacheKey{Sig: h.Signature(), Partitioner: name, NProcs: o.NProcs}
		tierKey := tier.Key(o.St.Sig, name, strconv.Itoa(o.NProcs))
		var delta []grid.LevelDelta
		if o.Kind == opStep {
			delta = make([]grid.LevelDelta, len(h.Levels))
			for l, keep := range keptLevels(o.Prev, o.St) {
				levels++
				if keep {
					delta[l] = grid.Keep()
					kept++
				} else {
					delta[l] = grid.Replace(h.Levels[l].Boxes)
				}
			}
		}
		compute := func() (*partition.Assignment, error) {
			p, err := server.ParsePartitioner(spec)
			if err != nil {
				return nil, err
			}
			return p.Partition(ctx, h, o.NProcs)
		}
		a := known[key]
		if a == nil && o.Want != server.CacheMiss {
			if a, err = compute(); err != nil {
				return err
			}
			known[key] = a
		}
		if o.Want == server.CacheHit {
			cache.Add(key, a)
		}

		root := rec.begin(0, "replay")
		var failed error
		stage := func(name string, f func() error) {
			if failed == nil {
				id := rec.begin(root, name)
				failed = f()
				rec.end(id)
			}
		}
		if o.Kind == opStep {
			stage("wire.req_decode", func() error { return json.Unmarshal(o.Body, &server.SessionStepRequest{}) })
			stage("grid.delta", func() error {
				next, err := tracked[o.Slot].WithDelta(delta)
				if err != nil {
					return err
				}
				next.Signature()
				tracked[o.Slot] = next
				return nil
			})
		} else {
			stage("wire.req_decode", func() error { return json.Unmarshal(o.Body, &server.PartitionRequest{}) })
			stage("grid.validate", h.Validate)
			stage("grid.signature", func() error { h.Signature(); return nil })
		}
		switch o.Want {
		case server.CacheHit:
			stage("admit.admit", func() error {
				release, err := gate.Admit(ctx, "", admit.Interactive, 0)
				if err == nil {
					release()
				}
				return err
			})
			stage("memo.hit", func() error {
				_, _, err := cache.GetOrCompute(ctx, key, compute)
				return err
			})
		case server.CacheMiss:
			// The trivial compute leaves the insert and, on a full
			// cache, the eviction as the span's self time.
			stage("memo.miss_insert", func() error {
				_, _, err := cache.GetOrCompute(ctx, key, func() (*partition.Assignment, error) { return &partition.Assignment{}, nil })
				return err
			})
			stage("partition.compute", func() (err error) { a, err = compute(); return err })
			known[key] = a
			if sched.members > 1 {
				var blob []byte
				stage("tier.ring_owner", func() error { ring.Owner(tierKey); return nil })
				stage("tier.encode", func() error { blob = tier.EncodeAssignment(a); return nil })
				stage("tier.disk_put", func() error { return store.Put(tierKey, blob) })
				blobBytes += float64(len(blob))
				blobs++
			}
		case server.CacheTier:
			var blob []byte
			stage("tier.ring_owner", func() error { ring.Owner(tierKey); return nil })
			stage("tier.disk_get", func() error {
				var ok bool
				if blob, ok = store.Get(tierKey); !ok {
					return fmt.Errorf("replay: tier blob of key %d missing", o.Key)
				}
				return nil
			})
			stage("tier.decode", func() error { _, err := tier.DecodeAssignment(blob); return err })
		}
		stage("partition.loads", func() error { a.Loads(h); a.Imbalance(h); return nil })
		stage("wire.resp_encode", func() error { _, err := json.Marshal(&resp); return err })
		rec.end(root)
		if failed != nil {
			return failed
		}
		timed++
		reqBytes += float64(len(o.Body))
		respBytes += float64(len(answers[i]))
		frags += float64(len(resp.Results[0].Fragments))
	}
	m["wire.req_bytes"] = reqBytes / timed
	m["wire.resp_bytes"] = respBytes / timed
	m["wire.fragments_per_resp"] = frags / timed
	if levels > 0 {
		m["grid.delta_keep_ratio"] = kept / levels
	}
	if blobs > 0 {
		m["tier.blob_bytes"] = blobBytes / blobs
	}
	return nil
}

// nanoStages are the stages reported in nanoseconds; the rest are in
// microseconds.
var nanoStages = map[string]bool{"admit.admit": true, "tier.ring_owner": true}

// stageMetric names the per-layer metric of a replayed stage.
func stageMetric(stage string) string {
	if nanoStages[stage] {
		return stage + "_ns"
	}
	return stage + "_us"
}

// statsDelta sums, over the members, how far the counter at path moved
// during the timed window.
func statsDelta(r *repResult, path string) float64 {
	var d float64
	for i := range r.after {
		d += counter(r.after[i], path) - counter(r.before[i], path)
	}
	return d
}

// tracedShare: each pass of a traced run sends a third of what an
// untraced run sends in all its repetitions.
const tracedShare = 3

// traced is the traced run of a service workload.
func (w *serviceWorkload) traced(ctx context.Context, e *runEnv, rec *recorder) (*workloadResult, error) {
	res := newResult(w.name, true)
	m := map[string]float64{}

	// The untraced pass is the base of trace_overhead_ratio and of
	// http.overhead_us; the traced pass repeats it with spans.
	in, err := newServiceInputs(ctx, e)
	if err != nil {
		return nil, err
	}
	plain, err := w.rep(ctx, e, in, tracedShare, nil)
	if err != nil {
		return nil, err
	}
	tr, err := w.rep(ctx, e, in, tracedShare, rec)
	if err != nil {
		return nil, err
	}
	res.count(plain)
	res.count(tr)
	plainP50 := percentile(plain.timedMS(isTimed), 50)
	if plainP50 > 0 {
		m["trace_overhead_ratio"] = percentile(tr.timedMS(isTimed), 50) / plainP50
	}
	m["proc.cpu_s"] = tr.cost.CPU.Seconds()

	hits, misses, shared := statsDelta(tr, "cache.hits"), statsDelta(tr, "cache.misses"), statsDelta(tr, "cache.shared")
	tierHits := statsDelta(tr, "cache.tier")
	m["memo.hits"], m["memo.misses"], m["memo.shared"] = hits, misses, shared
	if all := hits + misses + shared + tierHits; all > 0 {
		m["memo.hit_ratio"] = hits / all
	}
	// These metrics are named after their path in /v1/stats.
	for _, path := range []string{
		"unit_chains.hits", "unit_chains.misses", "sessions.created", "sessions.steps", "admission.admitted",
		"tier.lookups", "tier.disk_hits", "tier.peer_hits", "tier.misses", "tier.stores", "tier.store_errors",
		"tier.peer_gets", "tier.peer_puts", "tier.peer_failures", "tier.corrupt",
	} {
		m[path] = statsDelta(tr, path)
	}
	for _, reason := range []string{"shed_queue_full", "shed_rate_limit", "shed_deadline", "shed_injected"} {
		m["admission.shed"] += statsDelta(tr, "admission."+reason)
	}

	// Client-side latency by kind of request.
	m["sessions.create_p50_ms"] = percentile(tr.timedMS(func(o *op) bool { return o.Kind == opCreate }), 50)
	for _, app := range perApp("") {
		m["sessions.step_p50_ms."+app] = percentile(tr.timedMS(func(o *op) bool { return o.Kind == opStep && o.St.App == app }), 50)
	}
	if w.name == "fleet-share" {
		byWant := func(want string) []float64 {
			return tr.timedMS(func(o *op) bool { return o.Want == want })
		}
		m["fleet.miss_p50_ms"] = percentile(byWant(server.CacheMiss), 50)
		m["fleet.tier_p50_ms"] = percentile(byWant(server.CacheTier), 50)
		wantTier := 0
		for i := range tr.samples {
			if tr.samples[i].op.Want == server.CacheTier {
				wantTier++
			}
		}
		m["fleet.tier_served_ratio"] = float64(len(byWant(server.CacheTier))) / float64(wantTier)
	}

	// The same requests in process, then stage by stage.
	sched := tr.sched
	dir, err := os.MkdirTemp(e.tmp, w.name+"-inprocess-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	handlerUS, answers, err := w.inProcess(sched, dir, rec)
	if err != nil {
		return nil, err
	}
	if err := replay(ctx, sched, answers, dir, rec, m); err != nil {
		return nil, err
	}
	self := selfByName(rec.spans)
	for stage, us := range self {
		switch stage {
		case "request", "replay", "server.handler":
		default:
			m[stageMetric(stage)] = median(us)
			if nanoStages[stage] {
				m[stageMetric(stage)] *= 1e3
			}
		}
	}
	handler := median(handlerUS)
	m["server.handler_us"] = handler
	m["server.residual_us"] = handler
	for _, stage := range w.path {
		m["server.residual_us"] -= median(self[stage])
	}
	m["http.overhead_us"] = plainP50*1e3 - handler

	for name, v := range m {
		res.set(name, v)
	}
	return res, nil
}
