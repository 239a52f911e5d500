package server

import (
	"context"
	"fmt"

	"samr/internal/tier"
)

// Fleet-resumable sessions: with Config.TierSessions on, every
// committed session step writes a sealed snapshot of the session's
// state — hierarchy geometry, its signature, partitioner spec,
// processor count, and (for postmap sessions) the mapping
// history — through the fleet tier's store/offer path,
// keyed by the session token. A daemon receiving a step or delete for
// a token it does not hold consults the tier before answering 410: on
// a snapshot hit it rebuilds the session and serves the request under
// the same token, marking the response with X-Samr-Session-Resumed.
//
// The layer is optimization-only, like the tier itself. Sessions stay
// soft state: a tier miss, a corrupt snapshot (quarantined on sight),
// a snapshot whose signature does not match its rebuilt hierarchy, or
// any decode surprise all fall back to the documented 410 — the client
// re-creates from its full state and loses nothing but one upload.
// Snapshot writes are best-effort for the same reason: a failed write
// costs a future resume, never the step that tried it.

// SessionResumedHeader marks a session response whose session was not
// in this daemon's table and was rebuilt from a fleet-tier snapshot.
const SessionResumedHeader = "X-Samr-Session-Resumed"

// tierSessions reports whether durable sessions are active.
func (s *Server) tierSessions() bool {
	return s.cfg.TierSessions && s.tier != nil
}

// sessionSnapshotKey derives the tier key of a session's snapshot. The
// "session-snapshot" prefix keeps the key space disjoint from
// content-addressed result blobs; unlike those, a later snapshot for
// the same token legitimately overwrites an earlier one.
func sessionSnapshotKey(id string) string {
	return tier.Key("session-snapshot", id)
}

// storeSessionSnapshot writes the session's committed state through
// the tier, best-effort. Called with sess.mu held, immediately after a
// commit: the snapshot is always a committed state, and snapshots of
// one session can never land out of order.
func (s *Server) storeSessionSnapshot(sess *session) {
	if !s.tierSessions() {
		return
	}
	// Older fleet members still read the history's hierarchy: after a
	// commit it is the session's own (written only beside prevA).
	ss := &tier.SessionSnapshot{
		Name:           sess.name,
		NProcs:         sess.nprocs,
		Hierarchy:      sess.h,
		Sig:            sess.sig,
		Stateful:       sess.postmap,
		PrevHierarchy:  sess.h,
		PrevAssignment: sess.prevA,
	}
	s.tier.Store(sessionSnapshotKey(sess.id), tier.EncodeSessionSnapshot(ss))
}

// dropSessionSnapshot removes the local snapshot copy after an
// explicit delete. Peer copies may linger until their LRU turn:
// sessions are soft state, and a lingering snapshot merely lets the
// deleted token resume — harmless, since the client asked for the
// delete and will not reuse the token.
func (s *Server) dropSessionSnapshot(id string) {
	if !s.tierSessions() {
		return
	}
	if disk := s.tier.Disk(); disk != nil {
		disk.Delete(sessionSnapshotKey(id))
	}
}

// resumeSession attempts to rebuild session id from a fleet-tier
// snapshot, returning the live (restored or raced-ahead) session, or
// nil — the caller then answers the usual 410. Every failure mode
// counts a resume miss; corrupt or inconsistent snapshots are
// additionally quarantined so they are not fetched again.
func (s *Server) resumeSession(ctx context.Context, id string) *session {
	if !s.tierSessions() {
		return nil
	}
	// A snapshot that does not decode, or decodes cleanly but fails the
	// semantic cross-checks (stale signature, non-canonical spec,
	// invalid geometry), is quarantined like byte damage: it can never
	// resume.
	sess, ok := tier.LookupAs(ctx, s.tier, sessionSnapshotKey(id), func(blob []byte) (*session, error) {
		ss, err := tier.DecodeSessionSnapshot(blob)
		if err != nil {
			return nil, err
		}
		return s.sessionFromSnapshot(id, ss)
	})
	if !ok {
		s.sessions.resumeMisses.Add(1)
		return nil
	}
	return s.sessions.restore(sess)
}

// sessionFromSnapshot rebuilds a live session from a decoded snapshot,
// re-validating everything the create path would have: the snapshot
// came over the network and must earn the same trust as a client
// upload. The signature compare is the strongest check — the rebuilt
// hierarchy must re-hash to the snapshot's signature, so a resumed
// session serves exactly the signatures the dead owner last served.
func (s *Server) sessionFromSnapshot(id string, ss *tier.SessionSnapshot) (*session, error) {
	if ss.NProcs < 1 || ss.NProcs > maxProcs {
		return nil, fmt.Errorf("snapshot nprocs %d out of range [1, %d]", ss.NProcs, maxProcs)
	}
	sp, err := parseSpec(ss.Name)
	if err != nil {
		return nil, fmt.Errorf("snapshot partitioner: %w", err)
	}
	if sp.name != ss.Name {
		return nil, fmt.Errorf("snapshot partitioner %q is not canonical (parses to %q)", ss.Name, sp.name)
	}
	if sp.postmap != ss.Stateful {
		return nil, fmt.Errorf("snapshot statefulness disagrees with spec %q", ss.Name)
	}
	if ss.Hierarchy == nil {
		return nil, fmt.Errorf("snapshot carries no hierarchy")
	}
	if err := ss.Hierarchy.Validate(); err != nil {
		return nil, fmt.Errorf("snapshot hierarchy: %w", err)
	}
	if got := ss.Hierarchy.Signature(); got != ss.Sig {
		return nil, fmt.Errorf("snapshot signature %s does not match its hierarchy's %s", ss.Sig, got)
	}
	sess := &session{
		id:     id,
		h:      ss.Hierarchy,
		sig:    ss.Sig,
		spec:   sp,
		nprocs: ss.NProcs,
	}
	if ss.PrevHierarchy != nil && ss.PrevAssignment != nil {
		if ss.PrevAssignment.NumProcs != ss.NProcs {
			return nil, fmt.Errorf("snapshot history assignment is for %d processors, the session for %d", ss.PrevAssignment.NumProcs, ss.NProcs)
		}
		sess.prevA = ss.PrevAssignment
	}
	return sess, nil
}
