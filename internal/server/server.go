// Package server is the partitioning-as-a-service layer: an HTTP JSON
// API over the repo's meta-partitioner, partitioner suite, and
// trace-driven simulator, built for long-running deployment (the
// ROADMAP's production-scale service) rather than batch CLI use.
//
// Endpoints:
//
//	POST /v1/select     classify hierarchies, return the meta-partitioner choice
//	POST /v1/partition  run a named partitioner at a processor count
//	POST /v1/simulate   trace-driven evaluation over a registered trace
//	POST /v1/session    open a streaming session (full hierarchy upload)
//	POST /v1/session/{id}/step  advance a session by a per-level delta, partition the result
//	DELETE /v1/session/{id}     close a session
//	GET  /v1/traces     list the trace registry
//	GET  /v1/stats      cache counters, in-flight requests, per-endpoint totals
//	GET  /healthz       liveness
//
// Hierarchies are two-dimensional on every endpoint that takes one: a
// wire box whose dim is not 2 is a 400 (Box.toGeom), and a hierarchy
// that arrives past the wire — a session snapshot from a peer, a .trc in
// the trace directory — meets the same rule as it is decoded
// (grid.CheckLayout) and again in grid.Hierarchy.Validate.
//
// Three properties make it a service rather than an RPC wrapper.
// Results of /v1/partition are kept in a content-addressed LRU cache
// keyed by (hierarchy signature, partitioner, nprocs), so the repeated
// regrid states real SAMR runs produce are answered without
// recomputation — and concurrent identical misses are coalesced by a
// singleflight group on the same key, so a thundering herd computes
// once. Batch work fans out over the process-wide internal/pool
// budget, so concurrent requests share the machine instead of
// oversubscribing it. And every request is bounded by a context: the
// handler threads the request context (optionally capped by
// Config.RequestTimeout) down through pool dispatch, partitioners, and
// the simulator, so an abandoned or over-deadline request stops
// consuming CPU mid-batch instead of running to completion. A request
// whose deadline expires returns 504 with a JSON error; one whose
// client disconnected returns the nginx-conventional 499.
//
// # Overload behavior
//
// When Config.MaxInFlight is positive the compute endpoints
// (/v1/select, /v1/partition, /v1/simulate) sit behind the admission
// controller of internal/admit, applied after the body-size limit and
// before the request deadline is attached (body limit → admission →
// deadline → handler). A request that cannot be admitted — tenant over
// its rate (keyed by the X-Samr-Tenant header), accept queue full, or
// declared deadline budget (X-Samr-Deadline-Ms) smaller than the
// estimated queue wait — is shed with 429 Too Many Requests, a JSON
// error body, a Retry-After header (seconds), and an X-Samr-Shed
// header naming the reason, all before any partitioner runs. Admitted
// requests carry a pool dispatch class: select and partition are
// Interactive, simulate is Batch, so interactive regrid decisions
// preempt offline trace evaluation for the worker budget without
// starving it. GET /readyz reports 503 while the accept queue is
// saturated or shutdown has begun (BeginShutdown), so a fronting load
// balancer drains before requests are shed; GET /healthz stays pure
// liveness. With MaxInFlight zero (the default) admission is disabled
// and every response is exactly the pre-admission behavior.
//
// # Wire codec
//
// The three partition-shaped routes (/v1/partition, /v1/session and
// /v1/session/{id}/step) bypass reflection on both sides of a request,
// which on a cache hit would cost more than the rest of the handler
// together. A recogniser (codec.go) reads the body into a pooled buffer
// and accepts only a canonical subset: keys spelled exactly, in any
// order, each at most once; strings without escapes or non-ASCII;
// integers without fraction, exponent or leading zeros; 2-D boxes,
// built straight into geom.Box. Any other body — and one that fills the
// body limit — goes to encoding/json over the same bytes, so every 400
// and 413, every field-matching rule and the indifference to trailing
// bytes stay exactly encoding/json's; an accepted body meets the same
// parsing, validation and cache path as a decoded one. The answer is
// appended straight from each assignment into a pooled buffer, byte for
// byte what json.Encoder wrote for PartitionResponse. encoding/json
// stays the oracle of both halves in the tests (FuzzPartitionWire, the
// encoder's byte-equality suite) and the codec for every other route.
//
// On /v1/partition a cache hit is decoded, signed, looked up and
// written: a hierarchy whose key is resident is not validated again.
// The signature of an unvalidated hierarchy is well defined, because
// grid.Hierarchy.AppendEncoding writes any domain, ratio and levels
// without arithmetic, and it is injective over every field Validate
// reads. Only validated content enters the cache (posts, session steps,
// resumed snapshots, and tier answers fetched behind a local
// validation), so a resident key proves, barring a SHA-256 collision,
// that an identical hierarchy was validated. A key that is not resident
// is validated before the cache or the tier is consulted, and the
// probe counts nothing, so counters, headers and bodies, refusals and
// batches included, are those of a server that validates first.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"samr/internal/admit"
	"samr/internal/core"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/memo"
	"samr/internal/partition"
	"samr/internal/pool"
	"samr/internal/sim"
	"samr/internal/tier"
)

// maxProcs rejects absurd processor counts.
const maxProcs = 1 << 16

// defaultProcs is the processor count of a request that omits nprocs:
// 16, the paper's validation setup.
const defaultProcs = 16

// maxSessions bounds the streaming-session table; past it the least
// recently used session is evicted and its next step answers 410
// session-expired.
const maxSessions = 256

// maxBodyBytes bounds request bodies: deep hierarchies are a few MB of
// JSON, so 64 MiB is ample headroom without inviting abuse.
const maxBodyBytes = 64 << 20

// sessionTTL expires streaming sessions idle longer than this.
const sessionTTL = 15 * time.Minute

// Config carries the server's tunables; zero values select defaults.
type Config struct {
	// TraceDir is scanned for .trc files (empty = no file-backed traces).
	TraceDir string
	// CacheSize bounds the partition cache (results; default 256).
	CacheSize int
	// RequestTimeout caps each request's handling: the request context
	// is given this deadline and every layer below (pool dispatch,
	// partitioners, simulator) aborts once it expires. Zero disables
	// the cap (the client's own context still cancels).
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently admitted compute requests
	// (select/partition/simulate); four times as many wait in the
	// accept queue behind them, and requests past the queue are shed
	// with 429. Zero disables admission control entirely: no queueing,
	// no shedding, no per-tenant limits — responses are byte-identical
	// to the pre-admission server.
	MaxInFlight int
	// TenantRate is each tenant's sustained admission rate in requests
	// per second, keyed by the X-Samr-Tenant header (0 disables tenant
	// rate limiting; meaningful only with MaxInFlight > 0). A tenant's
	// token bucket holds ceil(TenantRate) tokens.
	TenantRate float64
	// TierDir roots the fleet tier's disk store (256 MiB, oldest
	// entries evicted first). With both TierDir and TierPeers empty the
	// tier is fully disabled: no tier routes are registered and every
	// response is byte-identical to a tier-less server.
	TierDir string
	// TierPeers lists every fleet member's base URL — the same list on
	// every daemon; each key's home is chosen by rendezvous hashing
	// over this set.
	TierPeers []string
	// TierSelf is this daemon's own base URL, so keys it owns are not
	// fetched from itself over HTTP. It must be one of TierPeers: a
	// member the ring does not list owns no key and never says so.
	TierSelf string
	// TierSessions makes streaming sessions fleet-resumable: after
	// every committed step the session's state is snapshotted through
	// the tier's store/offer path, and a step or delete naming a token
	// this daemon does not hold consults the tier before answering 410
	// — on a snapshot hit the session is rebuilt and served under the
	// same token (X-Samr-Session-Resumed: 1). Sessions remain soft
	// state: a tier miss still answers 410 and the client re-creates.
	// Requires the tier (TierDir and/or TierPeers); with it off every
	// response is byte-identical to a build without durable sessions.
	TierSessions bool
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	return c
}

// Request headers of the admission layer.
const (
	// TenantHeader names the requesting tenant for per-tenant rate
	// limits and accounting; absent means the anonymous tenant.
	TenantHeader = "X-Samr-Tenant"
	// DeadlineHeader declares the client's total deadline budget for
	// the request in milliseconds. Admission sheds the request up
	// front (429, ReasonDeadline) when the estimated queue wait
	// already exceeds the budget, and the remaining budget caps the
	// handler deadline like Config.RequestTimeout (whichever is
	// smaller wins). Invalid or absent values are ignored.
	DeadlineHeader = "X-Samr-Deadline-Ms"
	// ShedHeader carries the shed reason on 429 responses.
	ShedHeader = "X-Samr-Shed"
)

// StatusClientClosedRequest is the nginx-conventional status for a
// request whose client went away before a response was produced. It is
// recorded in logs/metrics; the disconnected client never sees it.
const StatusClientClosedRequest = 499

// endpointStats is one endpoint's cumulative request/error counters.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
}

// Server is the samrd HTTP service.
type Server struct {
	cfg      Config
	maxBody  int64 // maxBodyBytes; tests lower it
	cache    *answerCache
	registry *TraceRegistry
	mux      *http.ServeMux
	admit    *admit.Controller // nil = admission disabled

	tier *tier.Tier // nil = fleet tier disabled

	sessions *sessionTable

	inFlight     atomic.Int64
	endpoints    map[string]*endpointStats
	shuttingDown atomic.Bool
}

// New builds a server, loading every trace already present in
// cfg.TraceDir. A missing or unreadable directory is an error; an empty
// TraceDir is not.
func New(cfg Config) (*Server, error) {
	// Zero means off; negative means a typo.
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("server: negative duration (RequestTimeout %s)", cfg.RequestTimeout)
	}
	cfg = cfg.withDefaults()
	// Compared as the ring canonicalizes: a trailing slash is no mismatch.
	if ring := tier.NewRing(cfg.TierSelf, cfg.TierPeers); len(ring.Peers()) > 0 && !slices.Contains(ring.Peers(), ring.Self()) {
		return nil, fmt.Errorf("server: TierSelf %q is not one of TierPeers %q (every member lists itself)", cfg.TierSelf, cfg.TierPeers)
	}
	if cfg.TierSessions && !tierEnabled(cfg) {
		// Fail fast on a setting that would otherwise be silently off.
		return nil, fmt.Errorf("server: TierSessions requires the fleet tier (set TierDir and/or TierPeers)")
	}
	s := &Server{
		cfg:       cfg,
		maxBody:   maxBodyBytes,
		cache:     memo.New[CacheKey, partition.Packed](cfg.CacheSize),
		registry:  NewTraceRegistry(cfg.TraceDir),
		sessions:  newSessionTable(maxSessions),
		endpoints: make(map[string]*endpointStats),
	}
	if cfg.MaxInFlight > 0 {
		s.admit = admit.New(admit.Config{
			MaxInFlight: cfg.MaxInFlight,
			QueueDepth:  4 * cfg.MaxInFlight,
			TenantRate:  cfg.TenantRate,
		})
	}
	if _, err := s.registry.LoadDir(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/select", s.route(s.counters("select"), admit.Interactive, s.handleSelect))
	s.mux.HandleFunc("POST /v1/partition", s.route(s.counters("partition"), admit.Interactive, s.handlePartition))
	s.mux.HandleFunc("POST /v1/simulate", s.route(s.counters("simulate"), admit.Batch, s.handleSimulate))
	// Session endpoints run behind the same middleware chain as the
	// one-shot compute endpoints (body limit -> admission -> deadline,
	// Interactive class), but account into the session table rather
	// than the per-endpoint map, so an unused session layer leaves
	// /v1/stats byte-identical to a sessionless build.
	s.mux.HandleFunc("POST /v1/session", s.route(&s.sessions.http, admit.Interactive, s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/session/{id}/step", s.route(&s.sessions.http, admit.Interactive, s.handleSessionStep))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.route(&s.sessions.http, admit.Interactive, s.handleSessionDelete))
	s.mux.HandleFunc("GET /v1/traces", s.route(s.counters("traces"), unguarded, s.handleTraces))
	s.mux.HandleFunc("GET /v1/stats", s.route(s.counters("stats"), unguarded, s.handleStats))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if tierEnabled(cfg) {
		if err := s.initTier(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Registry exposes the trace registry (the daemon registers generated
// traces, tests inject synthetic ones).
func (s *Server) Registry() *TraceRegistry { return s.registry }

// Cache exposes the partition cache for stats reporting.
func (s *Server) Cache() *memo.Cache[CacheKey, partition.Packed] { return s.cache }

// Admission exposes the admission controller (nil when disabled) for
// stats reporting and operational tooling.
func (s *Server) Admission() *admit.Controller { return s.admit }

// BeginShutdown flips /readyz to 503 so a fronting load balancer stops
// routing new traffic; in-flight and already-queued requests drain
// normally. The daemon calls it on SIGTERM before http.Server.Shutdown.
func (s *Server) BeginShutdown() { s.shuttingDown.Store(true) }

// Close is a no-op: the server owns no goroutine and no file handle
// to release. It stays because bench/ calls it (ROADMAP 1(b) drops
// that call; the method follows).
func (s *Server) Close() {}

// ServeHTTP implements http.Handler. The body-size limit is the first
// middleware: it precedes admission, which precedes the deadline.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	s.mux.ServeHTTP(w, r)
}

// unguarded is route's "no admission class": the read-only and
// peer-protocol endpoints, which must keep answering while the compute
// path sheds load (a shed daemon can still report stats and serve its
// disk store), so they bypass admission and the deadline.
const unguarded admit.Priority = -1

// counters returns the named entry of the /v1/stats endpoint map,
// creating it on first use; routes registered under one name (the
// tier's GET/PUT) share one counter pair.
func (s *Server) counters(name string) *endpointStats {
	es := s.endpoints[name]
	if es == nil {
		es = &endpointStats{}
		s.endpoints[name] = es
	}
	return es
}

// route wraps a handler with the request/error counters es and the
// in-flight gauge and, unless pri is unguarded, in order: admission
// control at class pri (when enabled), the per-request deadline
// (Config.RequestTimeout capped further by any X-Samr-Deadline-Ms
// budget), and the pool dispatch class for every fan-out below the
// handler.
func (s *Server) route(es *endpointStats, pri admit.Priority, h http.HandlerFunc) http.HandlerFunc {
	class := pool.Interactive
	if pri == admit.Batch {
		class = pool.Batch
	}
	return func(w http.ResponseWriter, r *http.Request) {
		es.requests.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if sw.code >= 400 {
				es.errors.Add(1)
			}
		}()
		if pri == unguarded {
			h(sw, r)
			return
		}

		budget := deadlineBudget(r)
		if s.admit != nil {
			release, err := s.admit.Admit(r.Context(), r.Header.Get(TenantHeader), pri, budget)
			if err != nil {
				var shed *admit.ShedError
				if errors.As(err, &shed) {
					writeShed(sw, shed)
				} else {
					writeFailure(sw, err)
				}
				return
			}
			defer release()
		}

		timeout := s.cfg.RequestTimeout
		if budget > 0 && (timeout <= 0 || budget < timeout) {
			timeout = budget
		}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		r = r.WithContext(pool.WithClass(ctx, class))
		h(sw, r)
	}
}

// deadlineBudget parses the client-declared X-Samr-Deadline-Ms budget
// (0 when absent, invalid, or too large to be a Duration — a budget of
// 292 years caps nothing, and multiplying it out would wrap).
func deadlineBudget(r *http.Request) time.Duration {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return 0
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// handleReady is the readiness probe: NOT READY (503) once shutdown
// has begun or while the admission queue is saturated, so a fronting
// load balancer drains traffic before requests are shed. Liveness
// stays on /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.shuttingDown.Load():
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "not ready", Reason: "draining"})
	case s.admit != nil && s.admit.Saturated():
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "not ready", Reason: "saturated"})
	default:
		writeJSON(w, http.StatusOK, ReadyResponse{Status: "ready"})
	}
}

// writeShed emits the 429 load-shedding wire error: JSON body,
// Retry-After in whole seconds (rounded up, minimum 1), and the reason
// header.
func writeShed(w http.ResponseWriter, shed *admit.ShedError) {
	secs := int(math.Ceil(shed.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set(ShedHeader, shed.Reason)
	writeErr(w, http.StatusTooManyRequests, "%v", shed)
}

// statusWriter records the response status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is client's problem
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeErrCode is writeErr with a machine-readable error code clients
// branch on (the session layer's expiry/drift contract).
func writeErrCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeFailure maps an execution error onto the wire: a hierarchy past
// the unit budget or a relabel past the label bound is 400 (the request
// alone causes it; the message names the count and the bound), an
// exceeded deadline is 504 Gateway Timeout, a client cancellation is
// 499, and anything else (none today) is a 500. None of these is
// cached or tiered: the caches store successes only.
func writeFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, partition.ErrTooManyUnits), errors.Is(err, partition.ErrTooManyLabels):
		writeErr(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		writeErr(w, StatusClientClosedRequest, "request cancelled: %v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

func decode(w http.ResponseWriter, body io.Reader, v any) bool {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return false
	}
	return true
}

// gatherHierarchies merges the single/batch forms of a request into one
// ordered slice of hierarchies, each converted and then passed to check
// (which validates it), in order; the first refusal is the answer.
func gatherHierarchies(single *Hierarchy, batch []Hierarchy, check func(*grid.Hierarchy) error) ([]*grid.Hierarchy, error) {
	ws := batch
	if single != nil {
		ws = append([]Hierarchy{*single}, batch...)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("request carries no hierarchy")
	}
	out := make([]*grid.Hierarchy, len(ws))
	for i, w := range ws {
		h, err := w.geometry()
		if err == nil {
			err = check(h)
		}
		if err != nil {
			return nil, fmt.Errorf("hierarchy %d: %w", i, err)
		}
		out[i] = h
	}
	return out, nil
}

func (s *Server) checkProcs(w http.ResponseWriter, nprocs *int) bool {
	if *nprocs == 0 {
		*nprocs = defaultProcs
	}
	if *nprocs < 1 || *nprocs > maxProcs {
		writeErr(w, http.StatusBadRequest, "nprocs %d out of range [1, %d]", *nprocs, maxProcs)
		return false
	}
	return true
}

// checkLive rejects a request whose context is already dead (expired
// deadline or departed client) before any expensive work starts: the
// documented wire error is returned without running a partitioner.
func (s *Server) checkLive(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		writeFailure(w, err)
		return false
	}
	return true
}

// handleSelect classifies the submitted hierarchies in order through a
// fresh meta-partitioner, so a posted regrid sequence reproduces the
// in-process hysteresis behavior exactly.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if !decode(w, r.Body, &req) {
		return
	}
	hs, err := gatherHierarchies(req.Hierarchy, req.Hierarchies, (*grid.Hierarchy).Validate)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.checkProcs(w, &req.NProcs) {
		return
	}
	if !s.checkLive(w, r) {
		return
	}
	cost := req.PartitionCost
	if cost <= 0 {
		cost = core.DefaultPartitionCost
	}
	meta := core.NewMetaPartitioner(cost)
	resp := SelectResponse{Selections: make([]Selection, len(hs))}
	for i, h := range hs {
		if err := r.Context().Err(); err != nil {
			writeFailure(w, err)
			return
		}
		p := meta.Select(h, sim.DefaultMachine().TimeSlot(h, req.NProcs))
		sample, _ := meta.LastSample()
		resp.Selections[i] = selectionFrom(p, sample)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePartition runs the requested partitioner over every submitted
// hierarchy, fanning the batch out over the shared worker pool, serving
// repeated regrid states from the content-addressed cache, and
// coalescing concurrent identical misses through the cache's
// singleflight group. The whole batch is bounded by the request
// context: cancellation aborts mid-batch and returns the wire error.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req PartitionRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	sp, err := parseSpec(req.Partitioner)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Each hierarchy is signed as it arrives and validated only when its
	// key is not resident (see "Wire codec" above); nprocs defaults as
	// checkProcs will default it.
	// A post has no mapping history: a postmap spec's answer is its
	// inner spec's, cached under the inner key and not relabeled.
	nprocs := cmp.Or(req.NProcs, defaultProcs)
	var sigs []geom.Signature
	hs, err := gatherHierarchies(req.Hierarchy, req.Hierarchies, func(h *grid.Hierarchy) error {
		sig := hierarchySignature(h)
		sigs = append(sigs, sig)
		if s.cache.Contains(CacheKey{Sig: sig, Partitioner: sp.key, NProcs: nprocs}) {
			return nil
		}
		return h.Validate()
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.checkProcs(w, &req.NProcs) {
		return
	}
	if !s.checkLive(w, r) {
		return
	}

	outs := make([]partitionOut, len(hs))
	err = pool.MapCtx(ctx, pool.Workers(), len(hs), func(i int) error {
		a, disp, err := s.partitionCached(ctx, hs[i], sigs[i], sp, req.NProcs)
		if err != nil {
			return err
		}
		outs[i] = partitionOut{h: hs[i], sig: sigs[i], a: a, disp: disp}
		return nil
	})
	if err != nil {
		writeFailure(w, err)
		return
	}

	s.writeCacheHeaders(w, outs)
	writePartitionResponse(w, sp.name, req.NProcs, outs)
}

// partitionCached is the one path from a hierarchy to its assignment
// through the partition cache (hence singleflight and the fleet tier),
// shared by the one-shot and session-step handlers: sp's answer,
// before any postmap relabel, cached under sp.key. A miss — this
// request ran the partitioner — stores the answer to the tier before
// the request answers, so an answered result is one hop from every
// member; the flight's followers already have it by then.
func (s *Server) partitionCached(ctx context.Context, h *grid.Hierarchy, sig geom.Signature, sp spec, nprocs int) (partition.Packed, string, error) {
	key := CacheKey{Sig: sig, Partitioner: sp.key, NProcs: nprocs}
	p, disp, err := s.cache.GetOrCompute(ctx, key, func() (partition.Packed, error) {
		return packed(sp.p.Partition(ctx, h, nprocs))
	})
	if disp == CacheMiss && s.tier != nil {
		s.tier.Store(tierKeyOf(key), tier.EncodePacked(p))
	}
	return p, disp, err
}

// packed packs a partitioner's answer. Every answer of a hierarchy
// Validate accepts packs, so the error is the partitioner's own.
func packed(a *partition.Assignment, err error) (partition.Packed, error) {
	if err != nil {
		return partition.Packed{}, err
	}
	return partition.Pack(a)
}

// sigScratch recycles the encoding buffers behind hierarchySignature:
// hashing a deep hierarchy encodes a few hundred KB, and the request
// path signs every submitted hierarchy, so the scratch is pooled
// instead of allocated per request.
var sigScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1<<12); return &b }}

// hierarchySignature is h.Signature() with pooled encoding scratch.
func hierarchySignature(h *grid.Hierarchy) geom.Signature {
	bp := sigScratch.Get().(*[]byte)
	sig, buf := h.SignatureWith((*bp)[:0])
	*bp = buf
	sigScratch.Put(bp)
	return sig
}

// partitionOut is one hierarchy's answer on a partition-shaped route,
// before writePartitionResponse renders it as a PartitionResult. Both
// the one-shot partition path and the session step path go through that
// one writer and writeCacheHeaders, which is what makes a step response
// byte-identical to the equivalent full post.
type partitionOut struct {
	h    *grid.Hierarchy
	sig  geom.Signature
	a    partition.Packed
	disp string // CacheHit, CacheMiss, CacheShared or CacheTier
}

// writeCacheHeaders emits the cache headers of a partition-shaped
// response: the per-request disposition ("mixed" unless every result
// shares one) plus the cumulative process-wide counters, so operators
// (and the acceptance test) can watch hit and coalescing rates without
// polling /v1/stats.
func (s *Server) writeCacheHeaders(w http.ResponseWriter, outs []partitionOut) {
	disposition := "mixed"
	for _, d := range []string{CacheHit, CacheMiss, CacheShared, CacheTier} {
		if !slices.ContainsFunc(outs, func(o partitionOut) bool { return o.disp != d }) {
			disposition = d
		}
	}
	hits, misses, shared := s.cache.Stats()
	hdr := w.Header()
	hdr.Set("X-Samr-Cache", disposition)
	hdr.Set("X-Samr-Cache-Hits", strconv.FormatUint(hits, 10))
	hdr.Set("X-Samr-Cache-Misses", strconv.FormatUint(misses, 10))
	hdr.Set("X-Samr-Cache-Shared", strconv.FormatUint(shared, 10))
	if s.tier != nil {
		hdr.Set("X-Samr-Cache-Tier", strconv.FormatUint(s.cache.TierHits(), 10))
	}
	if len(outs) == 1 {
		hdr.Set("X-Samr-Signature", outs[0].sig.String())
	}
}

// handleSimulate replays a registered trace through the simulator
// (whose pipeline already fans out over the shared pool and honours the
// request context at every phase).
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req SimulateRequest
	if !decode(w, r.Body, &req) {
		return
	}
	tr, ok := s.registry.Get(req.Trace)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown trace %q", req.Trace)
		return
	}
	if !s.checkProcs(w, &req.NProcs) {
		return
	}
	if !s.checkLive(w, r) {
		return
	}
	if req.Steps > 0 && req.Steps < len(tr.Snapshots) {
		trunc := *tr
		trunc.Snapshots = tr.Snapshots[:req.Steps]
		tr = &trunc
	}

	var res *sim.Result
	var err error
	if req.Meta {
		meta := core.NewMetaPartitioner(core.DefaultPartitionCost)
		res, err = sim.SimulateTraceSelect(ctx, tr, func(step int, h *grid.Hierarchy) partition.Partitioner {
			return meta.Select(h, sim.DefaultMachine().TimeSlot(h, req.NProcs))
		}, req.NProcs, sim.DefaultMachine())
	} else {
		var p partition.Partitioner
		p, err = ParsePartitioner(req.Partitioner)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		res, err = sim.SimulateTrace(ctx, tr, p, req.NProcs, sim.DefaultMachine())
	}
	if err != nil {
		writeFailure(w, err)
		return
	}

	resp := SimulateResponse{
		Trace:         req.Trace,
		Partitioner:   res.PartitionerName,
		NProcs:        res.NumProcs,
		Snapshots:     len(res.Steps),
		TotalEstTime:  res.TotalEstTime(),
		MeanImbalance: res.MeanImbalance(),
	}
	if req.IncludeSteps {
		resp.Steps = make([]StepMetrics, len(res.Steps))
		for i, sm := range res.Steps {
			resp.Steps[i] = stepMetricsFrom(sm)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TracesResponse{Traces: s.registry.List()})
}

// handleStats reports the service's operational counters. The in-flight
// gauge includes this stats request itself.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses, shared := s.cache.Stats()
	chainHits, chainMisses, chainShared, chainEntries, chainCap := partition.CacheStats()
	memoPart, memoEval, memoMig := sim.MemoStats()
	resp := StatsResponse{
		Cache: CacheCounters{
			Hits:     hits,
			Misses:   misses,
			Shared:   shared,
			Entries:  s.cache.Len(),
			Capacity: s.cache.Capacity(),
		},
		UnitChains: CacheCounters{
			Hits:     chainHits,
			Misses:   chainMisses,
			Shared:   chainShared,
			Entries:  chainEntries,
			Capacity: chainCap,
		},
		SimMemo: MemoCounters{
			PartitionsMemoized:       memoPart,
			EvaluationsMemoized:      memoEval,
			MigrationsShortCircuited: memoMig,
		},
		InFlight:  s.inFlight.Load(),
		PoolSize:  pool.Workers(),
		Endpoints: make(map[string]EndpointCounters, len(s.endpoints)),
	}
	if s.admit != nil {
		st := s.admit.Stats()
		resp.Admission = &st
	}
	if s.tier != nil {
		resp.Cache.Tier = s.cache.TierHits()
		st := s.tier.Stats()
		resp.Tier = &st
	}
	if st := s.sessions.stats(); st != nil {
		resp.Sessions = st
	}
	for name, es := range s.endpoints {
		resp.Endpoints[name] = EndpointCounters{
			Requests: es.requests.Load(),
			Errors:   es.errors.Load(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
