package tier

import (
	"cmp"
	"slices"
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
	slices.Sort(r.peers)
	return r
}

func canonPeer(p string) string { return strings.TrimRight(strings.TrimSpace(p), "/") }

// Peers returns the ring members (sorted, deduped).
func (r *Ring) Peers() []string { return r.peers }

// Self returns this process's own canonical entry ("" if unset).
func (r *Ring) Self() string { return r.self }

// score is peer's rendezvous score for key: FNV-64a over the peer, a
// zero byte and the key, then murmur3's fmix64 finalizer. FNV alone
// leaves the scores of URLs that differ only in a port correlated, so
// one of three loopback members could own no key of a hundred; the
// finalizer spreads every input bit over the whole score.
func score(peer, key string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(peer); i++ {
		h = (h ^ uint64(peer[i])) * prime
	}
	h *= prime // the zero byte
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// Owner returns the peer owning key, or "" for an empty ring: Ranked's
// first peer, without its allocations. Peers are sorted, so keeping the
// first of equal scores is Ranked's tie-break.
func (r *Ring) Owner(key string) string {
	var best string
	var bestScore uint64
	for _, p := range r.peers {
		if s := score(p, key); s > bestScore || best == "" {
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
	out := slices.Clone(r.peers)
	slices.SortStableFunc(out, func(a, b string) int { return cmp.Compare(score(b, key), score(a, key)) })
	return out
}
