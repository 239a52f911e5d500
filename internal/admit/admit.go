// Package admit is samrd's admission-control layer: the piece that
// decides, before any partitioner runs, whether a request may consume
// the process's compute at all. PRs 1–5 made the stack fast (parallel
// kernels, content-addressed memoization); admit makes it survivable —
// under a burst of offered load the service degrades gracefully
// (bounded queueing, fast 429 sheds with a Retry-After hint) instead of
// collapsing into a pile of half-finished, deadline-blown requests.
//
// A Controller combines three mechanisms, applied in order:
//
//  1. Per-tenant token buckets (Config.TenantRate, keyed by
//     the X-Samr-Tenant header value the server passes down): a tenant
//     over its rate is throttled immediately with a Retry-After equal
//     to the time until its next token accrues, so one tenant's burst
//     cannot monopolize the fleet.
//  2. An in-flight concurrency cap (Config.MaxInFlight): at most that
//     many admitted requests run at once, keeping the worker pool at a
//     utilization where latency stays predictable.
//  3. A bounded two-class priority accept queue (Config.QueueDepth):
//     when the cap is reached, requests wait in FIFO order per class.
//     Freed slots are granted interactive-first with a weighted
//     anti-starvation rule (after interactiveWeight consecutive
//     interactive grants while batch work waits, the next grant goes to
//     batch), so interactive traffic preempts batch without starving
//     it. A request that would overflow the queue — or whose declared
//     deadline budget cannot survive the estimated wait (deadline-aware
//     shedding, using an EWMA of observed service times) — is shed
//     up front with a *ShedError carrying the retry hint.
//
// The controller never runs any work itself: Admit returns a release
// func the caller must invoke when its request finishes, which records
// the service time and hands the slot to the next waiter. Everything is
// cheap bookkeeping under one mutex; the shed path does no compute,
// which is what makes shedding "fail fast".
package admit

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Priority is a request's dispatch class. Interactive requests
// (select/partition: a running SAMR application waiting on a regrid
// decision) are granted freed slots ahead of Batch requests (simulate:
// offline trace evaluation), subject to the anti-starvation weight.
type Priority int

const (
	// Interactive is the latency-sensitive class.
	Interactive Priority = iota
	// Batch is the throughput class; it yields to Interactive but is
	// guaranteed forward progress by the grant weighting.
	Batch
)

func (p Priority) String() string {
	if p == Batch {
		return "batch"
	}
	return "interactive"
}

// interactiveWeight is the number of consecutive interactive grants
// allowed while batch work waits before a batch waiter is granted.
const interactiveWeight = 4

// maxTenants bounds the tenant bookkeeping map; once reached, requests
// from previously unseen tenants share one overflow bucket so a client
// spraying random tenant headers cannot grow memory without bound.
const maxTenants = 4096

// overflowTenant is the shared bucket for tenants past maxTenants.
const overflowTenant = "(overflow)"

// Shed reasons, as reported in ShedError.Reason and the X-Samr-Shed
// response header.
const (
	// ReasonQueueFull: the in-flight cap was reached and the accept
	// queue was already at QueueDepth.
	ReasonQueueFull = "queue-full"
	// ReasonRateLimit: the tenant's token bucket was empty.
	ReasonRateLimit = "rate-limit"
	// ReasonDeadline: the request's declared deadline budget was
	// smaller than the estimated queue wait, so queueing it could only
	// produce a late failure; shedding now lets the client retry
	// elsewhere immediately.
	ReasonDeadline = "deadline"
)

// ShedError reports a load-shedding decision: the request was refused
// before any compute ran. RetryAfter is the controller's estimate of
// when capacity (or a token) will be available.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("request shed (%s): retry after %s", e.Reason, e.RetryAfter)
}

// Config carries the controller's tunables.
type Config struct {
	// MaxInFlight caps concurrently admitted requests (required > 0;
	// the server disables admission entirely rather than constructing
	// a controller with a zero cap).
	MaxInFlight int
	// QueueDepth bounds the number of requests waiting for a slot.
	// Zero means no queue: a request that finds the cap reached is
	// shed immediately.
	QueueDepth int
	// TenantRate is each tenant's sustained admission rate in requests
	// per second (0 disables rate limiting). A tenant's bucket holds
	// ceil(TenantRate) tokens, at least 1.
	TenantRate float64
}

// defaultServiceTime seeds the queue-wait estimator before any request
// has completed. Once requests flow, an EWMA of observed service times
// replaces it.
const defaultServiceTime = 100 * time.Millisecond

// waiter is one queued admission request.
type waiter struct {
	tenant  string
	pri     Priority
	ready   chan struct{} // closed by the granter after taking a slot
	removed bool          // abandoned (ctx died); skipped by grants
}

// tenantState is one tenant's bucket and counters, all under the
// controller mutex.
type tenantState struct {
	tokens    float64
	last      time.Time
	admitted  uint64
	throttled uint64
	shed      uint64
	inFlight  int
}

// Controller is the admission gate. Construct with New; the zero value
// is not usable.
type Controller struct {
	cfg   Config
	burst float64 // tenant bucket capacity: ceil(TenantRate), at least 1

	mu             sync.Mutex
	inFlight       int
	queues         [2][]*waiter // indexed by Priority; FIFO within a class
	queued         int          // live (non-removed) waiters across both queues
	interactiveRun int          // consecutive interactive grants while batch waited
	tenants        map[string]*tenantState
	svcEWMA        time.Duration // smoothed observed service time (0 = no samples yet)

	admitted     uint64
	queuedTotal  uint64
	shedQueue    uint64
	shedRate     uint64
	shedDeadline uint64
}

// New builds a controller; cfg.MaxInFlight must be positive (callers
// model "admission disabled" as no controller at all).
func New(cfg Config) *Controller {
	if cfg.MaxInFlight <= 0 {
		panic("admit: MaxInFlight must be positive (use no controller to disable admission)")
	}
	return &Controller{
		cfg:     cfg,
		burst:   max(1, math.Ceil(cfg.TenantRate)),
		tenants: make(map[string]*tenantState),
	}
}

// Admit decides whether a request may run. On success it returns a
// release func the caller MUST invoke exactly when the request's
// handling ends (idempotent); release records the service time and
// grants the freed slot to the next waiter. On refusal the error is a
// *ShedError (shed before any compute) or the caller's own context
// error (the request died while queued).
//
// budget, when positive, is the client-declared deadline budget for the
// whole request; a request whose budget cannot survive the estimated
// queue wait is shed immediately (ReasonDeadline) rather than queued to
// fail late. A deadline already on ctx is used the same way.
func (c *Controller) Admit(ctx context.Context, tenant string, pri Priority, budget time.Duration) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	c.mu.Lock()
	ten := c.tenantLocked(tenant)

	// 1. Tenant token bucket: the cheapest rejection, checked first.
	if c.cfg.TenantRate > 0 {
		now := time.Now()
		if !ten.last.IsZero() {
			ten.tokens += now.Sub(ten.last).Seconds() * c.cfg.TenantRate
			ten.tokens = min(ten.tokens, c.burst)
		} else {
			ten.tokens = c.burst
		}
		ten.last = now
		if ten.tokens < 1 {
			wait := time.Duration((1 - ten.tokens) / c.cfg.TenantRate * float64(time.Second))
			ten.throttled++
			c.shedRate++
			c.mu.Unlock()
			return nil, &ShedError{Reason: ReasonRateLimit, RetryAfter: wait}
		}
		ten.tokens--
	}

	// 2. In-flight cap: grant immediately when there is headroom and no
	// earlier waiter is owed the slot.
	if c.queued == 0 && c.inFlight < c.cfg.MaxInFlight {
		c.inFlight++
		c.admitted++
		ten.admitted++
		ten.inFlight++
		c.mu.Unlock()
		return c.releaseFunc(tenant, time.Now()), nil
	}

	// 3. Bounded queue with deadline-aware shedding.
	if c.queued >= c.cfg.QueueDepth {
		est := c.waitEstimateLocked(c.queued)
		c.shedQueue++
		ten.shed++
		c.mu.Unlock()
		return nil, &ShedError{Reason: ReasonQueueFull, RetryAfter: est}
	}
	est := c.waitEstimateLocked(c.queued)
	remaining := budget
	if dl, ok := ctx.Deadline(); ok {
		if r := time.Until(dl); remaining <= 0 || r < remaining {
			remaining = r
		}
	}
	if remaining > 0 && remaining <= est {
		c.shedDeadline++
		ten.shed++
		c.mu.Unlock()
		return nil, &ShedError{Reason: ReasonDeadline, RetryAfter: est}
	}
	w := &waiter{tenant: tenant, pri: pri, ready: make(chan struct{})}
	c.queues[pri] = append(c.queues[pri], w)
	c.queued++
	c.queuedTotal++
	c.mu.Unlock()

	select {
	case <-w.ready:
		return c.releaseFunc(tenant, time.Now()), nil
	case <-ctx.Done():
		c.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: the slot is ours, but
			// the request is dead. Hand the slot straight back without
			// polluting the service-time EWMA.
			c.inFlight--
			c.tenantLocked(tenant).inFlight--
			c.grantLocked()
			c.mu.Unlock()
		default:
			w.removed = true
			c.queued--
			c.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// releaseFunc builds the idempotent slot-return closure for an admitted
// request.
func (c *Controller) releaseFunc(tenant string, start time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			dur := time.Since(start)
			c.mu.Lock()
			if c.svcEWMA == 0 {
				c.svcEWMA = dur
			} else {
				c.svcEWMA = (4*c.svcEWMA + dur) / 5
			}
			c.inFlight--
			c.tenantLocked(tenant).inFlight--
			c.grantLocked()
			c.mu.Unlock()
		})
	}
}

// grantLocked hands free slots to waiters: interactive-first, with a
// batch grant forced after interactiveWeight consecutive interactive
// grants made while batch work was waiting (starvation freedom).
func (c *Controller) grantLocked() {
	for c.inFlight < c.cfg.MaxInFlight {
		w := c.popLocked()
		if w == nil {
			return
		}
		c.inFlight++
		c.admitted++
		ten := c.tenantLocked(w.tenant)
		ten.admitted++
		ten.inFlight++
		close(w.ready)
	}
}

// popLocked removes and returns the next waiter under the weighted
// priority discipline, skipping abandoned entries.
func (c *Controller) popLocked() *waiter {
	peek := func(p Priority) *waiter {
		q := c.queues[p]
		for len(q) > 0 && q[0].removed {
			q = q[1:]
		}
		c.queues[p] = q
		if len(q) == 0 {
			return nil
		}
		return q[0]
	}
	iw, bw := peek(Interactive), peek(Batch)
	var pick Priority
	switch {
	case iw == nil && bw == nil:
		return nil
	case iw == nil:
		pick = Batch
	case bw == nil:
		pick = Interactive
		c.interactiveRun = 0 // no batch waiting: no starvation debt
	case c.interactiveRun >= interactiveWeight:
		pick = Batch
	default:
		pick = Interactive
		c.interactiveRun++
	}
	if pick == Batch {
		c.interactiveRun = 0
	}
	w := c.queues[pick][0]
	c.queues[pick] = c.queues[pick][1:]
	c.queued--
	return w
}

// waitEstimateLocked estimates how long the waiter at the given queue
// position will wait for a slot: one smoothed service time per "wave"
// of MaxInFlight departures ahead of it.
func (c *Controller) waitEstimateLocked(position int) time.Duration {
	svc := c.svcEWMA
	if svc <= 0 {
		svc = defaultServiceTime
	}
	waves := position/c.cfg.MaxInFlight + 1
	return time.Duration(waves) * svc
}

// tenantLocked returns the bookkeeping entry for a tenant, creating it
// on first sight and collapsing tenants past maxTenants into one
// overflow bucket.
func (c *Controller) tenantLocked(name string) *tenantState {
	if t, ok := c.tenants[name]; ok {
		return t
	}
	if len(c.tenants) >= maxTenants {
		name = overflowTenant
		if t, ok := c.tenants[name]; ok {
			return t
		}
	}
	t := &tenantState{}
	c.tenants[name] = t
	return t
}

// Saturated reports whether a new request arriving right now would be
// shed for capacity (queue full; with no queue, cap reached). The
// server's /readyz uses it to tell a fronting load balancer to back
// off before requests are actually shed.
func (c *Controller) Saturated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.QueueDepth > 0 {
		return c.queued >= c.cfg.QueueDepth
	}
	return c.inFlight >= c.cfg.MaxInFlight
}

// TenantStats is one tenant's cumulative admission accounting plus its
// live in-flight gauge.
type TenantStats struct {
	Admitted  uint64 `json:"admitted"`
	Throttled uint64 `json:"throttled"`
	Shed      uint64 `json:"shed"`
	InFlight  int    `json:"in_flight"`
}

// Stats is a consistent snapshot of the controller's counters and
// gauges; it serializes directly into /v1/stats.
type Stats struct {
	MaxInFlight int `json:"max_inflight"`
	QueueDepth  int `json:"queue_depth"`
	// InFlight and Queued are live gauges.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Admitted counts requests granted a slot (immediately or from the
	// queue); QueuedTotal counts requests that waited at all.
	Admitted    uint64 `json:"admitted"`
	QueuedTotal uint64 `json:"queued_total"`
	// The shed family is disjoint by reason; no shed request ran any
	// compute.
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedRateLimit uint64 `json:"shed_rate_limit"`
	ShedDeadline  uint64 `json:"shed_deadline"`
	// ServiceEWMANanos is the smoothed observed service time feeding
	// the queue-wait estimator (0 until the first request completes).
	ServiceEWMANanos int64                  `json:"service_ewma_nanos"`
	Tenants          map[string]TenantStats `json:"tenants"`
}

// ShedTotal sums the shed counters; it is monotone over a controller's
// lifetime (the saturation smoke test's invariant).
func (s Stats) ShedTotal() uint64 {
	return s.ShedQueueFull + s.ShedRateLimit + s.ShedDeadline
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		MaxInFlight:      c.cfg.MaxInFlight,
		QueueDepth:       c.cfg.QueueDepth,
		InFlight:         c.inFlight,
		Queued:           c.queued,
		Admitted:         c.admitted,
		QueuedTotal:      c.queuedTotal,
		ShedQueueFull:    c.shedQueue,
		ShedRateLimit:    c.shedRate,
		ShedDeadline:     c.shedDeadline,
		ServiceEWMANanos: int64(c.svcEWMA),
		Tenants:          make(map[string]TenantStats, len(c.tenants)),
	}
	for name, t := range c.tenants {
		st.Tenants[name] = TenantStats{
			Admitted:  t.admitted,
			Throttled: t.throttled,
			Shed:      t.shed,
			InFlight:  t.inFlight,
		}
	}
	return st
}
