package tier

import (
	"hash/fnv"
	"sort"
	"strings"
)

// Ring assigns every tier key an owner from a static peer set by
// rendezvous (highest-random-weight) hashing: the owner of a key is
// the peer whose hash(peer, key) scores highest. Every fleet member
// configured with the same peer list — order-independent; the ring
// sorts and dedupes — computes the same owner for every key, with no
// coordination; and removing a peer reassigns only the keys that peer
// owned (≈ K/n of them), never shuffling keys between surviving peers.
// That minimal-disruption property is what makes a static fleet
// practical: a dead daemon degrades exactly its own shard to local
// computes.
//
// A Ring is immutable and safe for concurrent use.
type Ring struct {
	self  string
	peers []string
}

// NewRing builds a ring over the peer base URLs (trailing slashes
// trimmed, duplicates and empties dropped). self, when non-empty,
// names this process's own entry so callers can short-circuit
// ownership checks that would otherwise loop back over HTTP; it does
// not need to appear in peers (a store-through client that owns
// nothing lists only the others).
func NewRing(self string, peers []string) *Ring {
	seen := make(map[string]bool, len(peers))
	r := &Ring{self: canonPeer(self)}
	for _, p := range peers {
		p = canonPeer(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		r.peers = append(r.peers, p)
	}
	sort.Strings(r.peers)
	return r
}

func canonPeer(p string) string { return strings.TrimRight(strings.TrimSpace(p), "/") }

// Peers returns the ring members (sorted, deduped).
func (r *Ring) Peers() []string { return r.peers }

// Self returns this process's own canonical entry ("" if unset).
func (r *Ring) Self() string { return r.self }

// Owner returns the peer owning key, or "" for an empty ring.
func (r *Ring) Owner(key string) string {
	var best string
	var bestScore uint64
	for _, p := range r.peers {
		h := fnv.New64a()
		h.Write([]byte(p))   //nolint:errcheck
		h.Write([]byte{0})   //nolint:errcheck
		h.Write([]byte(key)) //nolint:errcheck
		if s := h.Sum64(); s > bestScore || best == "" {
			best, bestScore = p, s
		}
	}
	return best
}

// Ranked returns every ring member ordered by descending rendezvous
// score for key — the owner first, then each successive failover
// candidate. Every member computes the identical order, so a failover
// read lands on the same stand-in fleet-wide. Ties (a 64-bit hash
// collision, effectively never) break by peer name for determinism.
func (r *Ring) Ranked(key string) []string {
	type scored struct {
		peer  string
		score uint64
	}
	ss := make([]scored, len(r.peers))
	for i, p := range r.peers {
		h := fnv.New64a()
		h.Write([]byte(p))   //nolint:errcheck
		h.Write([]byte{0})   //nolint:errcheck
		h.Write([]byte(key)) //nolint:errcheck
		ss[i] = scored{peer: p, score: h.Sum64()}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].peer < ss[j].peer
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.peer
	}
	return out
}
