package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"samr/internal/partition"
	"samr/internal/tier"
)

// The fleet cache tier: a second-level cache composed of a local disk
// store and the peer daemons named in Config.TierPeers (a
// rendezvous-hash ring). The partition cache reads through it on a
// leader's miss (memo.Tier); partitionCached writes a result it computed
// back to it before the request answers, the one write besides the
// session snapshot. It is an optimization layer only — every tier
// failure (dead peer, corrupt blob, full disk) degrades to a local
// partitioner run, never to a wire error. Every key it sees names a pure
// function of its content: a postmap spec is looked up under its inner
// partitioner's name and relabeled after the lookup (parseSpec).

// tierKeyOf derives the content-addressed fleet key for a partition
// cache key. Every daemon derives the identical key from the identical
// request, which is what lets one daemon's computed result answer
// another's lookup.
func tierKeyOf(k CacheKey) string {
	return tier.Key(k.Sig.String(), k.Partitioner, strconv.Itoa(k.NProcs))
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
	// A damaged blob, one the packed form cannot hold, or a sealed one
	// for another processor count, which the result writer would size
	// its load vector by, is a miss, never a wrong answer.
	s.cache.SetTier(func(ctx context.Context, k CacheKey) (partition.Packed, bool) {
		return tier.LookupAs(ctx, t, tierKeyOf(k), func(blob []byte) (partition.Packed, error) {
			p, err := tier.DecodePacked(blob)
			if err == nil && p.NumProcs() != k.NProcs {
				err = fmt.Errorf("blob sealed for %d processors, key for %d", p.NumProcs(), k.NProcs)
			}
			return p, err
		})
	})
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
	// The body limit middleware already caps reads at maxBodyBytes.
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
