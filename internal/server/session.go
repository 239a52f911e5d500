package server

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// The session layer: a delta-encoded streaming surface over the same
// partitioning stack the one-shot endpoints use. A real AMR client
// produces a *sequence* of regrid states in which most levels survive
// from step to step, yet every /v1/partition request re-uploads,
// re-validates, and re-hashes the full hierarchy. A session uploads the
// hierarchy once (POST /v1/session), then advances it with per-level
// deltas (POST /v1/session/{id}/step: "keep" or "replace" per level),
// so the bytes on the wire, the JSON decoding and the structural
// validation of a step are O(changed levels), not O(hierarchy). The
// server reconstructs each state with grid.WithDelta, which checks only
// what the replaced levels can break and shares the kept ones, and
// signs it: hashing is O(hierarchy) per step, through grid's pooled
// encoding scratch. It then answers through exactly the same cache /
// singleflight / fleet-tier stack as /v1/partition: a step response
// body is byte-identical to the equivalent full post.
//
// Post-mapping composes with the service here: a postmap(...) session
// keeps its mapping history — the previous step's relabeled
// assignment — server-side. Each step looks up the inner
// partitioner's answer through the same cache and tier as any other
// spec, then relabels it against that history (partition.Remap); the
// history advances only on successful steps (a cancelled step leaves
// both the session's hierarchy and its history untouched).
//
// Sessions are soft state in a bounded, TTL'd, mtime-LRU table
// (maxSessions entries, sessionTTL): an expired, evicted, or
// unknown session answers 410 Gone with the machine-readable error
// code "session-expired", and the client re-creates the session from
// its current full state — nothing is lost but one full upload.

// SessionHeader carries the session token on session responses.
const SessionHeader = "X-Samr-Session"

// Machine-readable error codes of the session wire contract
// (ErrorResponse.Code).
const (
	// CodeSessionExpired: the step or delete referenced a session that
	// has expired, been evicted, or never existed. The remedy is POST
	// /v1/session with the full current state.
	CodeSessionExpired = "session-expired"
	// CodeSessionBaseMismatch: the step declared a base signature that
	// is not the session's current state — client and server drifted
	// (e.g. a retried step already applied). The remedy is to re-sync
	// or re-create.
	CodeSessionBaseMismatch = "session-base-mismatch"
)

// Level ops of SessionStepRequest.
const (
	// LevelKeep marks a level as unchanged from the session's state.
	LevelKeep = "keep"
	// LevelReplace replaces a level's patch set wholesale.
	LevelReplace = "replace"
)

// session is one client's streaming partitioning state.
type session struct {
	id string
	// mu serializes steps: deltas are order-sensitive.
	mu sync.Mutex
	// h is the current regrid state. Owned by the session; levels are
	// immutable once attached, and shared with the states a step
	// derives from it.
	h *grid.Hierarchy
	// sig is h's signature, set with h at create, commit and resume.
	sig geom.Signature
	// spec is the partitioner spec, parsed once at create or resume.
	spec
	nprocs int
	// prevA is a postmap session's mapping history: the last committed
	// step's relabeled assignment (nil before the first step),
	// immutable once attached.
	prevA *partition.Assignment

	// lastUsed is the LRU mtime, guarded by the table lock.
	lastUsed time.Time
	elem     *list.Element
}

// sessionTable is the bounded TTL'd session store plus the session
// endpoints' accounting (kept out of the per-endpoint stats map so an
// unused session layer leaves /v1/stats byte-identical to a build
// without one).
type sessionTable struct {
	mu       sync.Mutex
	max      int
	sessions map[string]*session
	order    *list.List // front = most recently used
	now      func() time.Time

	created, expired, evicted, steps atomic.Uint64
	resumed, resumeMisses            atomic.Uint64
	http                             endpointStats
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{
		max:      max,
		sessions: make(map[string]*session),
		order:    list.New(),
		now:      time.Now,
	}
}

// lookup returns the live session for id, touching its mtime, or nil
// if it is unknown, expired (removed on the spot), or evicted.
func (t *sessionTable) lookup(id string) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess, ok := t.sessions[id]
	if !ok {
		return nil
	}
	now := t.now()
	if now.Sub(sess.lastUsed) > sessionTTL {
		t.removeLocked(sess)
		t.expired.Add(1)
		return nil
	}
	sess.lastUsed = now
	t.order.MoveToFront(sess.elem)
	return sess
}

// put inserts a fresh session, expiring stale entries first.
func (t *sessionTable) put(sess *session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for back := t.order.Back(); back != nil; back = t.order.Back() {
		s := back.Value.(*session)
		if now.Sub(s.lastUsed) <= sessionTTL {
			break
		}
		t.removeLocked(s)
		t.expired.Add(1)
	}
	t.insertLocked(sess, now)
	t.created.Add(1)
}

// insertLocked makes sess the most recently used entry, evicting the
// least recently used past the bound.
func (t *sessionTable) insertLocked(sess *session, now time.Time) {
	for len(t.sessions) >= t.max {
		t.removeLocked(t.order.Back().Value.(*session))
		t.evicted.Add(1)
	}
	sess.lastUsed = now
	sess.elem = t.order.PushFront(sess)
	t.sessions[sess.id] = sess
}

// remove deletes id, reporting whether it was present and live.
func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess, ok := t.sessions[id]
	if !ok {
		return false
	}
	live := t.now().Sub(sess.lastUsed) <= sessionTTL
	t.removeLocked(sess)
	if !live {
		t.expired.Add(1)
	}
	return live
}

func (t *sessionTable) removeLocked(sess *session) {
	delete(t.sessions, sess.id)
	t.order.Remove(sess.elem)
}

// restore inserts a session rebuilt from a fleet-tier snapshot,
// first-wins: when a live session with the same token already exists
// (two requests raced the same resume, or the owner never actually
// lost it), the existing instance is returned and the rebuilt copy
// discarded — its in-flight steps must all land on one state. Counts
// resumed only on an actual insert, and never created: creates count
// client uploads, resumes count failovers (/v1/stats keeps them
// distinct).
func (t *sessionTable) restore(sess *session) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if cur, ok := t.sessions[sess.id]; ok {
		if now.Sub(cur.lastUsed) <= sessionTTL {
			cur.lastUsed = now
			t.order.MoveToFront(cur.elem)
			return cur
		}
		t.removeLocked(cur)
		t.expired.Add(1)
	}
	t.insertLocked(sess, now)
	t.resumed.Add(1)
	return sess
}

// stats snapshots the session counters, or nil while the layer has
// never been used (keeping the stats body identical to a sessionless
// build until the first session request arrives).
func (t *sessionTable) stats() *SessionCounters {
	if t.http.requests.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	active := len(t.sessions)
	t.mu.Unlock()
	return &SessionCounters{
		Active:       active,
		Capacity:     t.max,
		Created:      t.created.Load(),
		Steps:        t.steps.Load(),
		Expired:      t.expired.Load(),
		Evicted:      t.evicted.Load(),
		Resumed:      t.resumed.Load(),
		ResumeMisses: t.resumeMisses.Load(),
		Requests:     t.http.requests.Load(),
		Errors:       t.http.errors.Load(),
	}
}

// newSessionID returns a 128-bit random hex token.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("session id entropy: " + err.Error()) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// writeSessionGone emits the documented 410 session-expired wire error.
func writeSessionGone(w http.ResponseWriter, id string) {
	writeErrCode(w, http.StatusGone, CodeSessionExpired,
		"session %q expired, was evicted, or never existed; POST /v1/session to start a new one", id)
}

// handleSessionCreate opens a session: full hierarchy upload, spec and
// nprocs fixed for the session's lifetime.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	cs := getCorners()
	defer putCorners(cs)
	if !s.decodeRequest(w, r, &req, cs) {
		return
	}
	if req.Hierarchy == nil {
		writeErr(w, http.StatusBadRequest, "request carries no hierarchy")
		return
	}
	sp, err := parseSpec(req.Partitioner)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	h, err := req.Hierarchy.toGrid()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "hierarchy: %v", err)
		return
	}
	if !s.checkProcs(w, &req.NProcs) {
		return
	}
	// Remap refuses a processor count at every step alike: a postmap
	// session it would refuse is refused before it exists.
	if _, err := partition.Remap(r.Context(), nil, &partition.Assignment{NumProcs: req.NProcs}); sp.postmap && err != nil {
		writeFailure(w, err)
		return
	}
	if !s.checkLive(w, r) {
		return
	}
	sess := &session{
		id:     newSessionID(),
		h:      h,
		sig:    h.Signature(),
		spec:   sp,
		nprocs: req.NProcs,
	}
	s.sessions.put(sess)

	resp := SessionCreateResponse{
		Session:     sess.id,
		Signature:   sess.sig.String(),
		Partitioner: sp.name,
		NProcs:      req.NProcs,
		Stateful:    sp.postmap,
		TTLSeconds:  int(sessionTTL / time.Second),
		Levels:      make([]string, h.NumLevels()),
	}
	for l := range resp.Levels {
		resp.Levels[l] = h.LevelSignature(l).String()
	}
	w.Header().Set(SessionHeader, sess.id)
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionStep advances a session by one regrid delta and
// partitions the resulting state. The response body is byte-identical
// to the equivalent full /v1/partition post of the reconstructed
// hierarchy: same result fields, same cache dispositions, same cache
// headers — only the X-Samr-Session header marks the path. A failed
// step (validation, cancellation, deadline) leaves the session state —
// hierarchy and any postmap history — exactly as it was, so the client
// retries the same delta.
func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	id := r.PathValue("id")
	var req SessionStepRequest
	cs := getCorners()
	ok := s.decodeRequest(w, r, &req, cs)
	putCorners(cs) // a recognised step's boxes are already lists
	if !ok {
		return
	}
	step, err := req.deltas()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess := s.sessions.lookup(id)
	if sess == nil {
		// Not held locally: with durable sessions on, the fleet tier may
		// hold a snapshot a now-dead peer wrote — resume under the same
		// token and serve the step as if this daemon had owned it all
		// along. A tier miss keeps the documented soft-state answer.
		if sess = s.resumeSession(ctx, id); sess == nil {
			writeSessionGone(w, id)
			return
		}
		w.Header().Set(SessionResumedHeader, "1")
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if req.Base != "" && req.Base != sess.sig.String() {
		writeErrCode(w, http.StatusConflict, CodeSessionBaseMismatch,
			"step base signature %.12s does not match the session state %.12s", req.Base, sess.sig.String())
		return
	}
	next, err := sess.h.WithDelta(step)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.checkLive(w, r) {
		return
	}

	sig := next.Signature()
	a, disp, err := s.partitionCached(ctx, func() *grid.Hierarchy { return next }, sig, sess.spec, sess.nprocs)
	var relabeled *partition.Assignment
	if err == nil && sess.postmap {
		relabeled, a, err = remapPacked(ctx, sess.prevA, a)
	}
	if err != nil {
		writeFailure(w, err)
		return
	}
	// Commit: the session state advances only on success. The durable
	// snapshot is written after the commit (still under sess.mu, so
	// snapshots for one session never race each other out of order); a
	// failed step leaves the previous snapshot — the last committed
	// state — in place, which is exactly what a resuming peer may serve.
	sess.h, sess.sig, sess.prevA = next, sig, relabeled // relabeled is nil unless postmap
	s.sessions.steps.Add(1)
	s.storeSessionSnapshot(sess)

	outs := []partitionOut{{ratio: next.RefRatio, sig: sig, a: a, disp: disp}}
	s.writeCacheHeaders(w, outs)
	w.Header().Set(SessionHeader, sess.id)
	writePartitionResponse(w, sess.name, sess.nprocs, outs)
}

// remapPacked relabels a postmap session step's cached answer against
// the session's history, returning the relabeled assignment (the next
// history) and its packed form for the response writer.
func remapPacked(ctx context.Context, prevA *partition.Assignment, p partition.Packed) (*partition.Assignment, partition.Packed, error) {
	a := p.Unpack()
	r, err := partition.Remap(ctx, prevA, a)
	if err != nil || r == a {
		return r, p, err
	}
	rp, err := partition.Pack(r)
	return r, rp, err
}

// handleSessionDelete closes a session. Deleting a live session
// answers 204; an expired, evicted, or unknown one answers the same
// 410 session-expired error as a step, so clients need one recovery
// path.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		// With durable sessions on, a snapshot written by a dead peer
		// still proves the token was live — resume it just to delete it,
		// so a client deleting after a failover gets the same 204 it
		// would have gotten from the original owner.
		if s.resumeSession(r.Context(), id) == nil {
			writeSessionGone(w, id)
			return
		}
		w.Header().Set(SessionResumedHeader, "1")
		s.sessions.remove(id)
	}
	s.dropSessionSnapshot(id)
	w.WriteHeader(http.StatusNoContent)
}
