package server

import (
	"fmt"

	"samr/internal/admit"
	"samr/internal/core"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sim"
	"samr/internal/tier"
)

// Wire types: the JSON request/response surface of the samrd API. The
// geometry encoding is deliberately explicit (dim + lo/hi component
// arrays) so clients in any language can produce it without knowing the
// internal IntVect padding convention.

// Box is the wire form of geom.Box: lo inclusive, hi exclusive, dim 2.
// Lo and Hi carry exactly dim components.
type Box struct {
	Dim int   `json:"dim"`
	Lo  []int `json:"lo"`
	Hi  []int `json:"hi"`
}

// Hierarchy is the wire form of grid.Hierarchy.
type Hierarchy struct {
	Domain   Box     `json:"domain"`
	RefRatio int     `json:"ref_ratio"`
	Levels   [][]Box `json:"levels"`

	// pre is the geometry the request recogniser (codec.go) read into
	// the request's corner list, unvalidated; the fields above are then
	// empty.
	pre flatHierarchy
}

// Fragment is the wire form of partition.Fragment.
type Fragment struct {
	Level int `json:"level"`
	Box   Box `json:"box"`
	Owner int `json:"owner"`
}

func fromGeomBox(b geom.Box) Box {
	w := Box{Dim: b.Dim, Lo: make([]int, b.Dim), Hi: make([]int, b.Dim)}
	for d := 0; d < b.Dim; d++ {
		w.Lo[d], w.Hi[d] = b.Lo[d], b.Hi[d]
	}
	return w
}

// toGeom is where the wire refuses anything but a 2-D box (every
// endpoint that takes geometry goes through it); grid.Hierarchy.Validate
// holds the same rule for hierarchies that arrive any other way.
func (w Box) toGeom() (geom.Box, error) {
	if w.Dim != 2 {
		return geom.Box{}, fmt.Errorf("box dim must be 2, got %d", w.Dim)
	}
	if len(w.Lo) != w.Dim || len(w.Hi) != w.Dim {
		return geom.Box{}, fmt.Errorf("box lo/hi must carry %d components, got %d/%d", w.Dim, len(w.Lo), len(w.Hi))
	}
	return geom.NewBox2(w.Lo[0], w.Lo[1], w.Hi[0], w.Hi[1]), nil
}

// FromHierarchy converts an in-process hierarchy to its wire form; Go
// clients (and the examples) use it to build requests without hand-
// rolling the JSON geometry encoding.
func FromHierarchy(h *grid.Hierarchy) Hierarchy { return fromGridHierarchy(h) }

func fromGridHierarchy(h *grid.Hierarchy) Hierarchy {
	w := Hierarchy{Domain: fromGeomBox(h.Domain), RefRatio: h.RefRatio}
	w.Levels = make([][]Box, len(h.Levels))
	for l, lev := range h.Levels {
		w.Levels[l] = make([]Box, len(lev.Boxes))
		for i, b := range lev.Boxes {
			w.Levels[l][i] = fromGeomBox(b)
		}
	}
	return w
}

// toGrid converts and structurally validates a submitted hierarchy.
func (w Hierarchy) toGrid() (*grid.Hierarchy, error) {
	h, err := w.geometry()
	if err != nil {
		return nil, err
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// geometry converts a submitted hierarchy without validating it, into
// exact-size lists.
func (w Hierarchy) geometry() (*grid.Hierarchy, error) {
	if w.pre.cs != nil {
		return w.pre.hierarchy(), nil
	}
	dom, err := w.Domain.toGeom()
	if err != nil {
		return nil, fmt.Errorf("domain: %w", err)
	}
	h := &grid.Hierarchy{Domain: dom, RefRatio: w.RefRatio}
	if len(w.Levels) > 0 {
		h.Levels = make([]grid.Level, len(w.Levels))
	}
	for l, lev := range w.Levels {
		boxes := make(geom.BoxList, len(lev))
		for i, wb := range lev {
			if boxes[i], err = wb.toGeom(); err != nil {
				return nil, fmt.Errorf("level %d box %d: %w", l, i, err)
			}
		}
		h.Levels[l].Boxes = boxes
	}
	return h, nil
}

// sign sets o's signature and refinement ratio to w's. A hierarchy the
// recogniser read is signed from its corners and returned as nil; any
// other is converted first, and its geometry returned.
func (w *Hierarchy) sign(o *partitionOut) (*grid.Hierarchy, error) {
	if w.pre.cs != nil {
		o.sig, o.ratio = w.pre.signature(), w.pre.ratio
		return nil, nil
	}
	h, err := w.geometry()
	if err != nil {
		return nil, err
	}
	o.sig, o.ratio = h.Signature(), h.RefRatio
	return h, nil
}

// SelectRequest submits one hierarchy — or an ordered sequence of them —
// for meta-partitioner classification. A sequence is classified in
// order through one classifier, so the hysteresis and history state
// behave exactly as in an in-process run.
type SelectRequest struct {
	Hierarchy   *Hierarchy  `json:"hierarchy,omitempty"`
	Hierarchies []Hierarchy `json:"hierarchies,omitempty"`
	// NProcs sizes the per-step time slot estimate; defaults to 16.
	NProcs int `json:"nprocs,omitempty"`
	// PartitionCost (seconds per repartitioning) seeds the dimension-II
	// model; 0 uses core.DefaultPartitionCost.
	PartitionCost float64 `json:"partition_cost,omitempty"`
}

// Selection is the outcome of classifying one hierarchy.
type Selection struct {
	Partitioner string  `json:"partitioner"`
	DimI        float64 `json:"dim_i"`
	DimII       float64 `json:"dim_ii"`
	DimIII      float64 `json:"dim_iii"`
	SizeNorm    float64 `json:"size_norm"`
	Points      int64   `json:"points"`
}

// SelectResponse returns one Selection per submitted hierarchy, in
// order.
type SelectResponse struct {
	Selections []Selection `json:"selections"`
}

func selectionFrom(p partition.Partitioner, s core.Sample) Selection {
	return Selection{
		Partitioner: p.Name(),
		DimI:        s.DimI,
		DimII:       s.DimII,
		DimIII:      s.DimIII,
		SizeNorm:    s.SizeNorm,
		Points:      s.Points,
	}
}

// PartitionRequest asks for a named partitioner to decompose one
// hierarchy (or a batch) over nprocs processors.
type PartitionRequest struct {
	Hierarchy   *Hierarchy  `json:"hierarchy,omitempty"`
	Hierarchies []Hierarchy `json:"hierarchies,omitempty"`
	// Partitioner is a spec accepted by ParsePartitioner (e.g.
	// "domain", "domain-morton-u4", "nature+fable", "patch-lpt",
	// "postmap(domain-hilbert-u2)").
	Partitioner string `json:"partitioner"`
	NProcs      int    `json:"nprocs"`
}

// PartitionResult is the decomposition of one hierarchy.
type PartitionResult struct {
	// Signature is the content hash of the submitted hierarchy — the
	// cache address of this result.
	Signature string `json:"signature"`
	// Partitioner is the canonical name of the partitioner that ran
	// (may differ from the request spec, e.g. "domain" expands to
	// "domain-hilbert-u2").
	Partitioner string     `json:"partitioner"`
	NProcs      int        `json:"nprocs"`
	Fragments   []Fragment `json:"fragments"`
	Loads       []int64    `json:"loads"`
	Imbalance   float64    `json:"imbalance"`
	// Cached reports whether this result was served from the partition
	// cache.
	Cached bool `json:"cached"`
	// Cache is the full disposition: "hit", "miss", or "shared" (the
	// result was coalesced onto another request's in-flight compute).
	Cache string `json:"cache"`
}

// PartitionResponse returns one result per submitted hierarchy.
type PartitionResponse struct {
	Results []PartitionResult `json:"results"`
}

// SimulateRequest asks for a trace-driven evaluation of a partitioner
// over a registered trace.
type SimulateRequest struct {
	// Trace names a trace in the server's registry.
	Trace       string `json:"trace"`
	Partitioner string `json:"partitioner"`
	NProcs      int    `json:"nprocs"`
	// Meta switches per-step partitioner choice to the meta-partitioner
	// (Partitioner is then ignored).
	Meta bool `json:"meta,omitempty"`
	// Steps truncates the simulation to the first N snapshots (0 = all).
	Steps int `json:"steps,omitempty"`
	// IncludeSteps adds the per-step metric rows to the response.
	IncludeSteps bool `json:"include_steps,omitempty"`
}

// StepMetrics is the wire form of sim.StepMetrics (loads elided).
type StepMetrics struct {
	Step              int     `json:"step"`
	Imbalance         float64 `json:"imbalance"`
	IntraLevelComm    int64   `json:"intra_level_comm"`
	InterLevelComm    int64   `json:"inter_level_comm"`
	Messages          int64   `json:"messages"`
	RelativeComm      float64 `json:"relative_comm"`
	Migration         int64   `json:"migration"`
	RelativeMigration float64 `json:"relative_migration"`
	EstTime           float64 `json:"est_time"`
}

// SimulateResponse summarizes a trace simulation.
type SimulateResponse struct {
	Trace         string        `json:"trace"`
	Partitioner   string        `json:"partitioner"`
	NProcs        int           `json:"nprocs"`
	Snapshots     int           `json:"snapshots"`
	TotalEstTime  float64       `json:"total_est_time"`
	MeanImbalance float64       `json:"mean_imbalance"`
	Steps         []StepMetrics `json:"steps,omitempty"`
}

func stepMetricsFrom(s sim.StepMetrics) StepMetrics {
	return StepMetrics{
		Step:              s.Step,
		Imbalance:         s.Imbalance,
		IntraLevelComm:    s.IntraLevelComm,
		InterLevelComm:    s.InterLevelComm,
		Messages:          s.Messages,
		RelativeComm:      s.RelativeComm,
		Migration:         s.Migration,
		RelativeMigration: s.RelativeMigration,
		EstTime:           s.EstTime,
	}
}

// TraceInfo describes one registered trace.
type TraceInfo struct {
	Name      string `json:"name"`
	App       string `json:"app"`
	RefRatio  int    `json:"ref_ratio"`
	MaxLevels int    `json:"max_levels"`
	Snapshots int    `json:"snapshots"`
	Domain    Box    `json:"domain"`
}

// TracesResponse lists the registry contents.
type TracesResponse struct {
	Traces []TraceInfo `json:"traces"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a machine-readable error code on errors clients are
	// expected to branch on (e.g. "session-expired" → re-create the
	// session); absent on every other error, keeping those bodies
	// identical to earlier releases.
	Code string `json:"code,omitempty"`
}

// LevelOp is one level's entry in a session step: op "keep" leaves the
// level as the session holds it (boxes must be absent), op "replace"
// substitutes the level's whole patch set with Boxes. A step carries
// exactly the new state's level count, so levels are appended by
// sending a longer list and dropped by sending a shorter one.
type LevelOp struct {
	Op    string `json:"op"`
	Boxes []Box  `json:"boxes,omitempty"`
}

// SessionCreateRequest opens a streaming session: one full hierarchy
// upload, with the partitioner spec and processor count fixed for the
// session's lifetime.
type SessionCreateRequest struct {
	Hierarchy   *Hierarchy `json:"hierarchy"`
	Partitioner string     `json:"partitioner"`
	NProcs      int        `json:"nprocs"`
}

// SessionCreateResponse returns the session token plus the base state's
// content signatures (whole hierarchy and per level), so the client can
// verify agreement before streaming deltas.
type SessionCreateResponse struct {
	// Session is the token; subsequent steps address
	// /v1/session/{token}/step (also echoed in X-Samr-Session).
	Session string `json:"session"`
	// Signature is the content hash of the uploaded base hierarchy.
	Signature string `json:"signature"`
	// Levels are the per-level sub-digests of the base hierarchy.
	Levels []string `json:"levels"`
	// Partitioner is the canonical partitioner name the session runs.
	Partitioner string `json:"partitioner"`
	NProcs      int    `json:"nprocs"`
	// Stateful reports whether the session carries a mapping history
	// server-side (postmap): each step's cached answer is then relabeled
	// against the previous step's, so results depend on the step
	// sequence.
	Stateful bool `json:"stateful"`
	// TTLSeconds is the idle expiry horizon: a session untouched this
	// long answers 410 session-expired.
	TTLSeconds int `json:"ttl_seconds"`
}

// SessionStepRequest advances a session by one regrid delta and
// partitions the resulting state. Levels[l] is level l of the NEW
// state.
type SessionStepRequest struct {
	Levels []LevelOp `json:"levels"`
	// Base optionally pins the step to a session state: if it does not
	// match the session's current signature the step is rejected with
	// 409 session-base-mismatch instead of silently applying the delta
	// to a drifted state.
	Base string `json:"base,omitempty"`

	// pre is the step the request recogniser (codec.go) read straight
	// into delta form; Levels is then empty.
	pre []grid.LevelDelta
}

// deltas converts the step's level ops, refusing a keep that carries
// boxes, a box that is not 2-D and an unknown op.
func (req SessionStepRequest) deltas() ([]grid.LevelDelta, error) {
	if req.pre != nil {
		return req.pre, nil
	}
	step := make([]grid.LevelDelta, len(req.Levels))
	for l, op := range req.Levels {
		switch op.Op {
		case LevelKeep:
			if len(op.Boxes) > 0 {
				return nil, fmt.Errorf("level %d: op %q carries boxes", l, LevelKeep)
			}
			step[l] = grid.Keep()
		case LevelReplace:
			boxes := make(geom.BoxList, len(op.Boxes))
			for i, wb := range op.Boxes {
				b, err := wb.toGeom()
				if err != nil {
					return nil, fmt.Errorf("level %d box %d: %w", l, i, err)
				}
				boxes[i] = b
			}
			step[l] = grid.Replace(boxes)
		default:
			return nil, fmt.Errorf("level %d: unknown op %q (have %q, %q)", l, op.Op, LevelKeep, LevelReplace)
		}
	}
	return step, nil
}

// SessionCounters is the session layer's accounting in /v1/stats.
type SessionCounters struct {
	// Active is the current table occupancy; Capacity its bound.
	Active   int `json:"active"`
	Capacity int `json:"capacity"`
	// Created counts sessions opened; Steps successful step requests;
	// Expired TTL expiries; Evicted LRU evictions past capacity.
	Created uint64 `json:"created"`
	Steps   uint64 `json:"steps"`
	Expired uint64 `json:"expired"`
	Evicted uint64 `json:"evicted"`
	// Resumed counts sessions rebuilt from a fleet-tier snapshot after
	// a request referenced a token this daemon did not hold;
	// ResumeMisses counts such attempts the tier could not answer (the
	// request then got the usual 410). Resumes are deliberately not
	// Created: creates count client uploads, resumes count failovers.
	// Both are omitted (always zero) while TierSessions is off, keeping
	// that stats body identical to earlier releases.
	Resumed      uint64 `json:"resumed,omitempty"`
	ResumeMisses uint64 `json:"resume_misses,omitempty"`
	// Requests/Errors are the session endpoints' HTTP totals (kept out
	// of the endpoints map: an unused session layer reports nothing).
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// CacheCounters is the partition cache's cumulative accounting.
type CacheCounters struct {
	// Hits served a stored result; Misses led a fresh compute (misses
	// equal partitioner executions); Shared coalesced onto another
	// request's in-flight compute.
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Shared  uint64 `json:"shared"`
	Entries int    `json:"entries"`
	// Capacity is the LRU bound.
	Capacity int `json:"capacity"`
	// Tier counts lookups answered by the second-level fleet tier
	// instead of a partitioner execution; omitted (and always zero)
	// while the tier is disabled, keeping the disabled-mode stats body
	// identical to a tier-less build.
	Tier uint64 `json:"tier,omitempty"`
}

// EndpointCounters is one endpoint's cumulative request accounting.
type EndpointCounters struct {
	Requests uint64 `json:"requests"`
	// Errors counts responses with status >= 400 (including 499/504
	// cancellation outcomes).
	Errors uint64 `json:"errors"`
}

// MemoCounters is the simulation pipeline's cumulative in-run
// memoization accounting: work units answered by an earlier identical
// step of the same trace run instead of recomputed.
type MemoCounters struct {
	// PartitionsMemoized counts snapshots whose partitioning was shared
	// with an earlier content-identical step.
	PartitionsMemoized uint64 `json:"partitions_memoized"`
	// EvaluationsMemoized counts snapshots whose metric evaluation was
	// shared with an earlier identical (signature, assignment) step.
	EvaluationsMemoized uint64 `json:"evaluations_memoized"`
	// MigrationsShortCircuited counts consecutive-step migration scans
	// answered without recomputation: both steps share one assignment
	// over content-identical hierarchies, so exactly zero points move.
	MigrationsShortCircuited uint64 `json:"migrations_short_circuited"`
}

// ReadyResponse is the body of GET /readyz: Status is "ready" (200) or
// "not ready" (503), with Reason naming why ("draining" once shutdown
// began, "saturated" while the admission queue is full).
type ReadyResponse struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// StatsResponse is the reply of GET /v1/stats.
type StatsResponse struct {
	Cache CacheCounters `json:"cache"`
	// UnitChains is the partition-layer memoization accounting: the
	// content-addressed caches under the unit-chain partitioners (the
	// prep bases and bi-level bands DomainSFC and NatureFable assemble
	// their preps from), summed.
	UnitChains CacheCounters `json:"unit_chains"`
	// SimMemo is the simulator's trace-run memoization accounting.
	SimMemo MemoCounters `json:"sim_memo"`
	// InFlight is the number of requests currently being handled,
	// including the stats request itself.
	InFlight int64 `json:"in_flight"`
	// PoolSize is the process-wide worker-pool width batch work fans
	// out over.
	PoolSize  int                         `json:"pool_size"`
	Endpoints map[string]EndpointCounters `json:"endpoints"`
	// Admission is the admission controller's counters and per-tenant
	// gauges (shed/queued/throttled accounting); absent while
	// admission is disabled, keeping the disabled-mode stats reply
	// identical to the pre-admission wire format.
	Admission *admit.Stats `json:"admission,omitempty"`
	// Tier is the fleet cache tier's accounting (disk store, peer
	// protocol, circuit breaker); absent while the tier is disabled,
	// keeping the disabled-mode stats reply identical to a tier-less
	// build.
	Tier *tier.Stats `json:"tier,omitempty"`
	// Sessions is the streaming-session layer's accounting; absent
	// until the first session request arrives, keeping the sessionless
	// stats reply identical to earlier releases.
	Sessions *SessionCounters `json:"sessions,omitempty"`
}
