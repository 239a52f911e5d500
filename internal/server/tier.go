package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"

	"samr/internal/partition"
	"samr/internal/tier"
)

// The fleet cache tier: a second-level cache behind the partition
// cache's memo.Tier hook, composed of a local disk store and the peer
// daemons named in Config.TierPeers (a rendezvous-hash ring). It is an
// optimization layer only — every tier failure (dead peer, corrupt
// blob, full disk) degrades to a local partitioner run, never to a wire
// error — and it is never consulted for stateful partitioner specs
// (postmap wrappers), whose results are not a pure function of the
// cache key.

// tierKeyOf derives the content-addressed fleet key for a partition
// cache key. Every daemon derives the identical key from the identical
// request, which is what lets one daemon's computed result answer
// another's lookup.
func tierKeyOf(k CacheKey) string {
	return tier.Key(k.Sig.String(), k.Partitioner, strconv.Itoa(k.NProcs))
}

// assignmentTier adapts a *tier.Tier (blobs) to the partition cache's
// memo.Tier (assignments) — the one memo↔tier binding: it owns the key
// derivation, the codec, the stateful-spec exclusion, and the
// corrupt-entry quarantine.
type assignmentTier struct {
	t *tier.Tier
}

func (at assignmentTier) Lookup(ctx context.Context, k CacheKey) (*partition.Assignment, bool) {
	if statefulSpec(k.Partitioner) {
		return nil, false
	}
	key := tierKeyOf(k)
	blob, ok := at.t.Lookup(ctx, key)
	if !ok {
		return nil, false
	}
	a, err := tier.DecodeAssignment(blob)
	if err != nil || a.NumProcs != k.NProcs {
		// A damaged blob — or a sealed one for another processor count,
		// which the result builder would size its load vector by — is a
		// miss, never a wrong answer; drop the local copy so it is not
		// served again.
		at.t.ReportCorrupt(key)
		return nil, false
	}
	return a, true
}

func (at assignmentTier) Store(k CacheKey, a *partition.Assignment) {
	if statefulSpec(k.Partitioner) {
		return
	}
	at.t.Store(tierKeyOf(k), tier.EncodeAssignment(a))
}

// tierEnabled reports whether the config asks for a tier at all.
func tierEnabled(cfg Config) bool {
	return cfg.TierDir != "" || len(cfg.TierPeers) > 0
}

// initTier assembles the tier from the config, hooks it under the
// partition cache, and registers the peer protocol. Called only when
// tierEnabled: with the tier off, the server's routes, stats body, and
// responses are byte-identical to a tier-less build.
func (s *Server) initTier() error {
	t, err := tier.New(tier.Config{
		Dir:   s.cfg.TierDir,
		Peers: s.cfg.TierPeers,
		Self:  s.cfg.TierSelf,
	})
	if err != nil {
		return err
	}
	s.tier = t
	s.cache.SetTier(assignmentTier{t: t})
	// The peer protocol is unguarded like /v1/stats, under one shared
	// counter pair.
	es := s.counters("tier")
	s.mux.HandleFunc("GET /v1/tier/{key}", s.route(es, unguarded, s.handleTierGet))
	s.mux.HandleFunc("PUT /v1/tier/{key}", s.route(es, unguarded, s.handleTierPut))
	return nil
}

// Tier exposes the fleet tier (nil when disabled) for stats reporting
// and tests.
func (s *Server) Tier() *tier.Tier { return s.tier }

func (s *Server) handleTierGet(w http.ResponseWriter, r *http.Request) {
	s.tier.ServeGet(w, r.PathValue("key"))
}

func (s *Server) handleTierPut(w http.ResponseWriter, r *http.Request) {
	// The body limit middleware already caps reads at MaxBodyBytes.
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad body", code)
		return
	}
	s.tier.ServePut(w, r.PathValue("key"), blob)
}
