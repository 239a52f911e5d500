package tier

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"sync/atomic"
)

// keyLen is the length of every tier key: lowercase hex sha256.
const keyLen = 2 * sha256.Size

// Key derives the canonical tier key from the parts of a content
// address (e.g. hierarchy signature, canonical partitioner name,
// processor count). Parts are length-prefixed before hashing, so
// distinct part lists never collide by concatenation, and the result
// is fixed-length lowercase hex — safe as both a file name and a URL
// path segment.
func Key(parts ...string) string {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := range lenBuf {
			lenBuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenBuf[:]) //nolint:errcheck
		h.Write([]byte(p)) //nolint:errcheck
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Config assembles a Tier; at least one of Dir and Peers must be set.
type Config struct {
	// Dir roots the disk store, at OpenDiskStore's default bound (""
	// disables the disk level — the tier is then a pure peer client and
	// cannot serve the peer protocol).
	Dir string
	// Peers lists every fleet member's base URL, identically across
	// the fleet (the ring sorts and dedupes). Empty disables the peer
	// level.
	Peers []string
	// Self is this daemon's own base URL as it appears in Peers; keys
	// it owns are never fetched over HTTP (self-short-circuit: the
	// disk store was already consulted).
	Self string
}

// Tier is the composed second-level cache: a disk store consulted
// first, then the key's ring owner over HTTP. Store writes the disk
// level and offers the blob to the key's owner, so any fleet member
// can later find it in at most one hop. Every failure is a miss by
// contract; Lookup, LookupAs and Store never return errors.
type Tier struct {
	disk   *DiskStore // nil: no disk level
	ring   *Ring      // nil: no peer level
	client *PeerClient

	lookups, diskHits, peerHits, misses atomic.Uint64
	stores, storeErrors, corrupt        atomic.Uint64
	failoverReads, failoverStores       atomic.Uint64
}

// New assembles a tier from cfg.
func New(cfg Config) (*Tier, error) {
	t := &Tier{}
	if cfg.Dir != "" {
		var err error
		if t.disk, err = OpenDiskStore(cfg.Dir, 0); err != nil {
			return nil, err
		}
	}
	if len(cfg.Peers) > 0 {
		t.ring = NewRing(cfg.Self, cfg.Peers)
		t.client = newPeerClient()
	}
	return t, nil
}

// Disk returns the disk store (nil when the disk level is disabled);
// internal/server serves the peer protocol from it.
func (t *Tier) Disk() *DiskStore { return t.disk }

// peerFor picks the single peer to consult for key: the ring owner
// while its breaker admits traffic, otherwise the next available peer
// in rendezvous order (the failover target — one hop, no cascading).
// Self never appears (its disk store is consulted directly), and ""
// means no peer is worth asking. Breaker state thus feeds the ring:
// an open owner degrades its shard to the fleet-wide stand-in that
// every member computes identically; once its breaker closes the owner
// refills from the offers it is sent and from its own misses.
func (t *Tier) peerFor(key string) (peer string, failover bool) {
	self := t.ring.Self()
	owner := t.ring.Owner(key)
	if owner == "" || owner == self {
		return "", false
	}
	if t.client.Available(owner) {
		return owner, false
	}
	for _, p := range t.ring.Ranked(key)[1:] {
		if p == self || !t.client.Available(p) {
			continue
		}
		return p, true
	}
	return "", false
}

// Lookup returns the blob for key from the nearest level that has it:
// the local disk store, then the key's ring owner — or, when the
// owner's breaker is open, the next peer in rendezvous order (a
// failover read; still exactly one peer consultation). A peer-served
// blob goes back to the caller only: nothing reachable from Lookup
// writes to disk, so a peer's bytes reach this member's disk only
// through ServePut, which checks the envelope first.
func (t *Tier) Lookup(ctx context.Context, key string) ([]byte, bool) {
	t.lookups.Add(1)
	if t.disk != nil {
		if blob, ok := t.disk.Get(key); ok {
			t.diskHits.Add(1)
			return blob, true
		}
	}
	if t.ring != nil && t.client != nil {
		if peer, failover := t.peerFor(key); peer != "" {
			if failover {
				t.failoverReads.Add(1)
			}
			if blob, err := t.client.Fetch(ctx, peer, key); err == nil {
				t.peerHits.Add(1)
				return blob, true
			}
		}
	}
	t.misses.Add(1)
	return nil, false
}

// Store persists key's blob locally and offers it to the key's ring
// owner, best-effort: a full disk, a dead owner, or an open breaker
// costs a counter, never the caller's request. It returns once the
// offer is answered or the peer client's timeout ends it. The server
// stores before it answers, so an answered result is already one hop
// from every member.
func (t *Tier) Store(key string, blob []byte) {
	t.stores.Add(1)
	ok := false
	if t.disk != nil {
		if err := t.disk.Put(key, blob); err == nil {
			ok = true
		}
	}
	// A self-owned key needs no offer: the local disk write above is
	// where the fleet will look for it. An open owner breaker diverts
	// the offer to the owner's rendezvous stand-in — the same peer
	// failover reads consult — so the result stays reachable while the
	// owner is away.
	if t.ring != nil && t.client != nil {
		if peer, failover := t.peerFor(key); peer != "" {
			if failover {
				t.failoverStores.Add(1)
			}
			if t.client.Put(context.Background(), peer, key, blob) {
				ok = true
			}
		}
	}
	if !ok {
		t.storeErrors.Add(1)
	}
}

// LookupAs looks key up and decodes the blob: a blob that decode
// refuses — byte damage, or a value that fails the caller's own checks
// — is counted corrupt, its local disk entry is deleted so it is never
// served again, and it reads as a miss. A peer-served blob has no local
// copy to drop; the recompute's offer replaces it at the peer.
func LookupAs[V any](ctx context.Context, t *Tier, key string, decode func([]byte) (V, error)) (V, bool) {
	var zero V
	blob, ok := t.Lookup(ctx, key)
	if !ok {
		return zero, false
	}
	v, err := decode(blob)
	if err != nil {
		t.corrupt.Add(1)
		if t.disk != nil {
			t.disk.Delete(key)
		}
		return zero, false
	}
	return v, true
}

// Stats is the tier's cumulative accounting, shaped for /v1/stats.
type Stats struct {
	// Lookups counts Tier.Lookup calls (one per singleflight-leader
	// local miss); every lookup is exactly one of DiskHits, PeerHits,
	// or Misses.
	Lookups  uint64 `json:"lookups"`
	DiskHits uint64 `json:"disk_hits"`
	PeerHits uint64 `json:"peer_hits"`
	Misses   uint64 `json:"misses"`
	// Stores counts Tier.Store calls (one per answer the server
	// computed, one per session snapshot); StoreErrors counts stores
	// that landed nowhere.
	Stores      uint64 `json:"stores"`
	StoreErrors uint64 `json:"store_errors"`
	// Corrupt counts blobs that failed to decode (evicted on sight).
	Corrupt uint64 `json:"corrupt"`
	// Peer protocol accounting (absent peer level: zeros).
	PeerGets uint64 `json:"peer_gets"`
	PeerPuts uint64 `json:"peer_puts"`
	// PeerFailures counts failed peer exchanges, every one that fed
	// its peer's breaker a failure (a transport error or a status the
	// protocol does not expect), whether or not the breaker opened.
	// An exchange the caller's own context ended and one an open
	// breaker skipped are not counted.
	PeerFailures uint64 `json:"peer_failures"`
	// BreakerSkips counts exchanges suppressed by an open circuit
	// breaker (the peer was recently down; no request was sent).
	BreakerSkips uint64 `json:"breaker_skips"`
	Peers        int    `json:"peers"`
	// Disk store occupancy (absent disk level: zeros).
	DiskEntries   int    `json:"disk_entries"`
	DiskBytes     int64  `json:"disk_bytes"`
	DiskMaxBytes  int64  `json:"disk_max_bytes"`
	DiskEvictions uint64 `json:"disk_evictions"`
	// Self-healing accounting, all omitted while zero/absent so a
	// healthy fleet's stats body is byte-identical to a build without
	// it. FailoverReads/FailoverStores count exchanges diverted past an
	// open owner breaker to its rendezvous stand-in.
	FailoverReads  uint64 `json:"failover_reads,omitempty"`
	FailoverStores uint64 `json:"failover_stores,omitempty"`
	// Breakers lists only non-trivial peer breakers (open, half-open,
	// or accumulating failures); a healthy fleet exports none.
	Breakers []BreakerState `json:"breakers,omitempty"`
}

// Stats snapshots the tier.
func (t *Tier) Stats() Stats {
	st := Stats{
		Lookups:     t.lookups.Load(),
		DiskHits:    t.diskHits.Load(),
		PeerHits:    t.peerHits.Load(),
		Misses:      t.misses.Load(),
		Stores:      t.stores.Load(),
		StoreErrors: t.storeErrors.Load(),
		Corrupt:     t.corrupt.Load(),
	}
	st.FailoverReads = t.failoverReads.Load()
	st.FailoverStores = t.failoverStores.Load()
	if t.client != nil {
		st.PeerGets = t.client.gets.Load()
		st.PeerPuts = t.client.puts.Load()
		st.PeerFailures = t.client.failures.Load()
		st.BreakerSkips = t.client.skips.Load()
		for _, b := range t.client.BreakerStates() {
			if b.State != BreakerClosed || b.Fails > 0 {
				st.Breakers = append(st.Breakers, b)
			}
		}
	}
	if t.ring != nil {
		st.Peers = len(t.ring.Peers())
	}
	if t.disk != nil {
		st.DiskEntries = t.disk.Len()
		st.DiskBytes = t.disk.Bytes()
		st.DiskMaxBytes = t.disk.MaxBytes()
		st.DiskEvictions = t.disk.evictions.Load()
	}
	return st
}

// ServeGet is the peer-protocol read handler body: it answers key from
// the disk store (200/404). internal/server routes GET /v1/tier/{key}
// here.
func (t *Tier) ServeGet(w http.ResponseWriter, key string) {
	if t.disk == nil || !validKey(key) {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	blob, ok := t.disk.Get(key)
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob) //nolint:errcheck
}

// ServePut is the peer-protocol write handler body: it verifies the
// blob envelope (magic, version, checksum — garbage is rejected before
// it can reach disk) and stores it (204). internal/server routes
// PUT /v1/tier/{key} here.
func (t *Tier) ServePut(w http.ResponseWriter, key string, blob []byte) {
	if t.disk == nil {
		http.Error(w, "no disk store", http.StatusNotFound)
		return
	}
	if !validKey(key) {
		http.Error(w, "bad key", http.StatusBadRequest)
		return
	}
	if _, _, err := Open(blob); err != nil {
		http.Error(w, "bad blob", http.StatusBadRequest)
		return
	}
	if err := t.disk.Put(key, blob); err != nil {
		http.Error(w, "store failed", http.StatusInsufficientStorage)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
