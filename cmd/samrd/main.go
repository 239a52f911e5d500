// Command samrd is the SAMR partitioning-as-a-service daemon: a
// long-running HTTP server answering meta-partitioner selection,
// partitioning, and trace-simulation requests, with a content-addressed
// LRU cache over partitioning results (keyed by hierarchy signature,
// partitioner, and processor count) so the repeated regrid states of a
// running SAMR application are served without recomputation.
//
// # Quickstart
//
// Start the daemon over a trace directory:
//
//	mkdir traces
//	samrd -addr :8347 -traces traces
//
// Register a trace by dropping a .trc file into the directory — no
// restart needed, the registry picks new files up on demand:
//
//	samrtrace -app bl2d -o traces/bl2d.trc
//	curl localhost:8347/v1/traces
//
// Ask the meta-partitioner to classify a hierarchy and pick a
// partitioner:
//
//	curl -d '{"hierarchy": {"domain": {"dim": 2, "lo": [0,0], "hi": [32,32]},
//	          "ref_ratio": 2,
//	          "levels": [[{"dim": 2, "lo": [0,0], "hi": [32,32]}],
//	                     [{"dim": 2, "lo": [8,8], "hi": [40,40]}]]}}' \
//	     localhost:8347/v1/select
//
// Hierarchies are two-dimensional, like the paper's four applications: a
// box whose "dim" is not 2 answers 400 on every endpoint that takes one.
//
// Run a named partitioner at a processor count (repeat the request and
// watch the X-Samr-Cache header flip from miss to hit):
//
//	curl -i -d '{"hierarchy": {...}, "partitioner": "nature+fable", "nprocs": 16}' \
//	     localhost:8347/v1/partition
//
// Evaluate a partitioner over a registered trace:
//
//	curl -d '{"trace": "bl2d", "partitioner": "domain-hilbert-u2", "nprocs": 16}' \
//	     localhost:8347/v1/simulate
//
// Partitioner specs accept family aliases (domain, patch-lpt,
// nature+fable/hybrid, postmap(...)) as well as the fully configured
// canonical names the library prints, e.g.
// "nature+fable-hilbert-u4-q4-whole". Setting "meta": true on
// /v1/simulate replaces the fixed partitioner with per-step
// meta-partitioner selection.
//
// # Deadlines and cancellation
//
// Every request is bounded by a context that threads from the HTTP
// layer down through the worker pool, the partitioners, and the
// simulator; no layer ignores cancellation. The -request-timeout flag
// caps each request's handling (default 2m, 0 disables; a negative
// duration fails startup): a
// request whose deadline expires — including one that arrives already
// past it — returns 504 Gateway Timeout with a JSON error body, without
// running (or while aborting, mid-batch) the partitioner. A client that
// disconnects cancels its request the same way; the outcome is recorded
// as the nginx-conventional 499. Cancelled partition work never
// produces partial results and never poisons the cache.
//
// Concurrent identical cache misses are coalesced: while one request
// computes a partition, every other request for the same
// (signature, partitioner, nprocs) key waits for that result instead of
// recomputing it, and reports X-Samr-Cache: shared. Watch the cache and
// request counters live:
//
//	curl localhost:8347/v1/stats
//
// Slow-client protection: request bodies are bounded at 64 MiB, and
// the HTTP server runs with read/write timeouts derived from
// -request-timeout so a stalled connection cannot pin a handler
// forever.
//
// # Operating under load
//
// By default samrd accepts every request and lets the worker pool
// arbitrate the CPU. Setting -max-inflight enables admission control
// over the compute endpoints (/v1/select, /v1/partition, /v1/simulate):
// at most that many requests compute at once, up to four times as many
// more wait in a bounded queue, and everything beyond that is shed
// immediately with 429 Too Many Requests, a JSON error body, a
// Retry-After header (whole seconds, >= 1), and an X-Samr-Shed header
// naming the reason (queue-full, rate-limit, or deadline). Shed
// requests never run a partitioner and never touch the cache. The
// interactive endpoints (/v1/select, /v1/partition) are dispatched
// ahead of batch /v1/simulate work, both at the admission queue and
// inside the worker pool, without starving batch.
//
//	samrd -addr :8347 -traces traces -max-inflight 8
//
// Tenants are distinguished by the X-Samr-Tenant request header
// (absent means the anonymous tenant). -tenant-rate grants each tenant
// a token bucket of that many requests per second (0 disables rate
// limiting) holding the rate rounded up, so one hot client cannot
// monopolize admission; throttled requests get the same 429 shape with
// X-Samr-Shed: rate-limit. Per-tenant admission counters appear under
// "admission" in /v1/stats.
//
// A client may declare its remaining budget in X-Samr-Deadline-Ms;
// samrd sheds the request up front (X-Samr-Shed: deadline) when the
// expected queue wait already exceeds that budget, and otherwise uses
// it to cap the request deadline below -request-timeout.
//
// /healthz stays a pure liveness probe. /readyz is the load-balancer
// signal: it returns 503 {"status":"not ready","reason":"saturated"}
// while the admission queue is full, and 503 with reason "draining"
// once shutdown has begun, so rotations stop sending traffic before
// the listener closes. Observability endpoints (/v1/stats, /v1/traces,
// /healthz, /readyz) are never shed.
//
// With -max-inflight 0 (the default) admission is fully disabled and
// responses are identical to a build without it.
//
// # Streaming sessions
//
// A running SAMR application produces a sequence of regrid states in
// which most levels survive from step to step. Instead of re-posting
// the full hierarchy to /v1/partition every regrid, open a session —
// one full upload, with the partitioner and processor count fixed for
// its lifetime:
//
//	curl -i -d '{"hierarchy": {...}, "partitioner": "domain", "nprocs": 16}' \
//	     localhost:8347/v1/session
//
// The response carries the session token (body "session" and the
// X-Samr-Session header), the base state's content signature, and
// per-level sub-digests. Then advance the state with per-level deltas:
// each step lists one op per level of the NEW state — "keep" (level
// survives unchanged) or "replace" (full new patch set for that
// level) — so a longer list appends levels and a shorter one drops
// them, and the request costs O(changed boxes), not O(hierarchy):
//
//	curl -i -d '{"levels": [{"op": "keep"},
//	                        {"op": "replace", "boxes": [{"dim": 2, "lo": [10,8], "hi": [42,32]}]}]}' \
//	     localhost:8347/v1/session/<token>/step
//
// The step response is byte-identical to the equivalent full
// /v1/partition post of the reconstructed hierarchy — same results,
// same cache dispositions and headers — and the state is answered
// through the same cache, singleflight, and fleet-tier stack. An
// optional "base" field pins the step to the signature it was computed
// against; a mismatch (e.g. a retried step that already applied)
// answers 409 with code "session-base-mismatch". A failed or cancelled
// step leaves the session state untouched, so the client retries the
// same delta.
//
// postmap(...) specs compose with sessions: the session keeps its
// mapping history (the previous step's assignment) server-side, and
// relabels each step's answer against it, so labels follow the data
// from step to step. The answer itself is the inner partitioner's,
// looked up through the cache and tier like any other; the relabel
// happens after the lookup. The relabel matches at most 2048 labels,
// so a postmap session over more processors is refused at create
// (400). A one-shot /v1/partition post has no history, so a postmap
// post answers its inner spec's answer.
//
// Sessions are soft state: the table holds 256 (LRU eviction past it)
// and a session idle for 15 minutes expires. A step or delete on an
// expired, evicted, or unknown session answers 410 Gone
// with code "session-expired"; the client re-creates the session from
// its current full state and loses nothing but one upload. DELETE
// /v1/session/<token> closes a session early (204). Session counters
// appear under "sessions" in /v1/stats once the first session request
// arrives.
//
// # Running a fleet
//
// Several samrd daemons can share their partition caches through the
// fleet tier: a disk store per daemon plus an HTTP peer protocol
// (GET/PUT /v1/tier/{key}) over which each content-addressed result
// lives on the fleet member chosen by rendezvous hashing. A result
// computed by any member is then served by every member — from its own
// disk, or from the key's owner in one hop — without recomputation.
// The member that computed a result stores it and offers it to the
// key's owner before it answers; identical requests that shared the
// computation answer without waiting for the offer.
//
// Start two daemons that know each other (every member passes the SAME
// -tier-peers list, naming all members including itself, and its own
// URL as -tier-self; a -tier-self that is missing or is not one of
// -tier-peers, a trailing slash aside, fails startup, because a member
// the ring does not know would own no key and never say so):
//
//	samrd -addr :8347 -tier-dir /var/cache/samr-a \
//	      -tier-peers http://10.0.0.1:8347,http://10.0.0.2:8347 \
//	      -tier-self  http://10.0.0.1:8347
//	samrd -addr :8347 -tier-dir /var/cache/samr-b \
//	      -tier-peers http://10.0.0.1:8347,http://10.0.0.2:8347 \
//	      -tier-self  http://10.0.0.2:8347
//
// POST a partition request to the first daemon, then the identical
// request to the second: the second answers with X-Samr-Cache: tier —
// the bytes came from the fleet, not from a partitioner run. The tier
// is a pure optimization layer: a dead peer, a full or corrupt disk
// store, or an open circuit breaker degrades to computing locally,
// never to a client-visible error. A postmap(...) spec shares its inner
// spec's entries: the relabel against a session's history happens
// after the lookup.
// Each disk store is one append-only log, tier.log, in its -tier-dir,
// bounded at 256 MiB of blobs; the least recently used entries are
// evicted first. With no tier flags set, the tier is fully disabled
// and responses are byte-identical to a build without it. Tier
// counters appear under "tier" in /v1/stats.
//
// # When a member dies, and when it comes back empty
//
// Every peer exchange is tried once; a failure is a miss at once, and
// the request computes locally. Each peer carries a circuit breaker:
// consecutive failed exchanges open it, and after a cooldown one probe
// half-opens it. While a key's owner is open, the lookup — and the
// post-compute store offer — diverts to the next peer in rendezvous
// order, one hop, so a dead member degrades its shard to a fleet-wide
// stand-in instead of a recompute per request per member. Nothing else
// is lost: every other key still has its owner.
//
// A member that returns with an empty -tier-dir needs no help either.
// A key another member owns is fetched from that owner in one hop and
// kept in the partition cache only: a tier hit writes nothing to disk,
// so a member's disk holds the keys it computed and the keys it owns.
// A key it owns itself is a miss, computed once and stored, after which
// it is warm again — and the offers its peers send once its breaker
// closes fill in the rest. There is no background repair to enable or
// to watch.
//
// Operators watch the self-healing layer in /v1/stats under "tier":
// "breakers" lists non-closed peer breakers (state and consecutive
// failures), "failover_reads"/"failover_stores" count diverted
// exchanges, and "corrupt" counts quarantined blobs. The first three
// are omitted while zero, so a healthy fleet's stats are unchanged.
//
// # Session durability and failover
//
// By default a streaming session lives only in the memory of the
// daemon that created it: if that daemon dies, the client's next step
// gets 410 and re-creates elsewhere. -tier-sessions (requires the
// fleet tier) makes sessions fleet-resumable: after every committed
// step the daemon writes a sealed snapshot of the session — hierarchy,
// its signature, partitioner spec, processor count, and any postmap
// mapping history — through the tier's store/offer path,
// keyed by the session token, so the snapshot lands on the token's
// rendezvous owner as well as the local disk store.
//
//	samrd ... -tier-dir /var/cache/samr-a -tier-peers ... -tier-self ... -tier-sessions
//
// A daemon receiving a step (or delete) for a token it does not hold
// then consults the tier before answering 410: on a snapshot hit it
// rebuilds the session — re-validating the hierarchy and re-hashing
// it, which must reproduce the snapshot's signature — and serves the
// request under the same token, marking the response
// with X-Samr-Session-Resumed: 1. Kill a fleet member mid-stream and
// the client's next step lands on a peer and succeeds with the same
// body the dead owner would have sent; postmap sessions carry their
// mapping history across the failover.
//
// The soft-state guarantee is unchanged: sessions are never durable
// state the fleet promises to keep. A tier miss (snapshot evicted,
// owner also dead, write lost) still answers 410 session-expired and
// the client re-creates from its full state — -tier-sessions only
// makes that recovery path rare, it never removes it. Corrupt or
// inconsistent snapshots are quarantined and count as misses.
// Resume traffic appears in /v1/stats under "sessions" as "resumed"
// and "resume_misses", distinct from "created" (creates count client
// uploads, resumes count failovers). With the flag off, every route,
// header, and stats body is byte-identical to a build without durable
// sessions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"samr/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		dir        = flag.String("traces", "", "directory of .trc trace files (loaded at startup and on demand)")
		cache      = flag.Int("cache", 256, "partition cache capacity (results)")
		reqTimeout = flag.Duration("request-timeout", 2*time.Minute, "per-request deadline threaded into partitioners and simulator (0 disables)")
		inflight   = flag.Int("max-inflight", 0, "max concurrently computing requests, with four times as many queued behind them; 0 disables admission control")
		tenantRate = flag.Float64("tenant-rate", 0, "per-tenant admission rate limit in requests/second (burst: the rate rounded up); 0 disables")
		tierDir    = flag.String("tier-dir", "", "fleet tier disk store directory, holding one append-only log (tier.log) bounded at 256 MiB of blobs (empty disables the tier)")
		tierPeers  = flag.String("tier-peers", "", "comma-separated base URLs of every fleet member, identical across the fleet")
		tierSelf   = flag.String("tier-self", "", "this daemon's own base URL; required with -tier-peers and must be one of them")
		tierSess   = flag.Bool("tier-sessions", false, "snapshot streaming sessions through the fleet tier so peers can resume them (needs the tier)")
	)
	flag.Parse()

	var peers []string
	for _, p := range strings.Split(*tierPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}

	s, err := server.New(server.Config{
		TraceDir:       *dir,
		CacheSize:      *cache,
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *inflight,
		TenantRate:     *tenantRate,
		TierDir:        *tierDir,
		TierPeers:      peers,
		TierSelf:       *tierSelf,
		TierSessions:   *tierSess,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "samrd:", err)
		os.Exit(1)
	}
	for _, ti := range s.Registry().List() {
		log.Printf("samrd: trace %q: app=%s snapshots=%d", ti.Name, ti.App, ti.Snapshots)
	}

	// The read timeout bounds slow request-body uploads, which were
	// previously unbounded (only the headers had a timeout) and let a
	// slow client pin a connection forever. The write timeout — which
	// starts at header read and therefore also spans the body upload —
	// leaves a full read-timeout of headroom over the handler deadline,
	// so a slow upload followed by a compute that runs to its
	// -request-timeout can still flush the documented 504. With
	// -request-timeout 0 the cap really is disabled: no write timeout.
	const readTimeout = 5 * time.Minute
	var writeTimeout time.Duration
	if *reqTimeout > 0 {
		writeTimeout = *reqTimeout + readTimeout
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Shutdown makes ListenAndServe return immediately, so main must
	// wait for the drain itself before exiting the process.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Flip /readyz to "draining" before closing the listener so a
		// load balancer stops routing here ahead of connection errors.
		s.BeginShutdown()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx) //nolint:errcheck
	}()

	if s.Tier() != nil {
		log.Printf("samrd: fleet tier on (dir %q, %d peers, %d byte bound)", *tierDir, len(peers), s.Tier().Stats().DiskMaxBytes)
	}
	if *tierSess {
		log.Printf("samrd: durable sessions on (snapshots through the fleet tier, peers resume)")
	}
	if *inflight > 0 {
		log.Printf("samrd: admission control on (max in-flight %d, queue %d, tenant rate %g/s)",
			*inflight, s.Admission().Stats().QueueDepth, *tenantRate)
	}
	// The configuration in force, not the flags: a -cache of zero or
	// below selects the default capacity, and server.New has refused a
	// negative -request-timeout (0 disables the cap).
	log.Printf("samrd: listening on %s (cache %d, request timeout %s)", *addr, s.Cache().Capacity(), *reqTimeout)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "samrd:", err)
		os.Exit(1)
	}
	stop()
	<-drained
	hits, misses, shared := s.Cache().Stats()
	log.Printf("samrd: shut down (cache hits %d, misses %d, shared %d)", hits, misses, shared)
}
