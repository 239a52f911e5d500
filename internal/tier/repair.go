package tier

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Anti-entropy repair: a rejoined or wiped fleet member pulls the keys
// it owns under rendezvous hashing back from its peers, so its shard
// warms from the fleet instead of from recomputes. Each round asks
// every available peer for its key manifest (GET /v1/tier/manifest, the
// full sorted listing), diffs the owned keys against the local disk
// store, and pulls the missing ones over the existing peer-GET protocol
// — verified against the sealed-envelope codec before landing on disk,
// bounded per round in both keys and bytes so a cold member never
// floods the fleet. Repair is pull-only, idempotent and stateless
// between rounds: running it on a warm member is a manifest exchange
// and nothing else, and a peer that restarted with a different key set
// is simply listed again.

// maxBytesPerRound bounds the bytes one repair round pulls.
const maxBytesPerRound = 64 << 20

// RepairConfig tunes a Repairer; zero values select the defaults.
type RepairConfig struct {
	// Interval is the period of Run's repair rounds (default 30s).
	Interval time.Duration
	// MaxKeysPerRound bounds keys pulled per round (default 256).
	MaxKeysPerRound int
}

// RepairStats is the repair loop's cumulative accounting, shaped for
// /v1/stats.
type RepairStats struct {
	// Rounds counts completed repair rounds.
	Rounds uint64 `json:"rounds"`
	// KeysPulled/BytesPulled count entries backfilled from peers.
	KeysPulled  uint64 `json:"keys_pulled"`
	BytesPulled uint64 `json:"bytes_pulled"`
	// Failures counts manifest fetches, pulls, verifications, and
	// stores that did not complete (each retried next round).
	Failures uint64 `json:"failures"`
	// Missing is the last round's remaining owned-key deficit — keys
	// peers hold for this member that are not yet local. A converged
	// member reads 0; operators watch it fall after a rejoin.
	Missing int `json:"missing"`
}

// Repairer drives anti-entropy rounds for one Tier. Methods are safe
// for concurrent use (Run is the usual driver, tests call Round
// directly).
type Repairer struct {
	t   *Tier
	cfg RepairConfig

	rounds, keysPulled, bytesPulled, failures atomic.Uint64
	missing                                   atomic.Int64
}

// NewRepairer builds a repairer over t, which must have all three of a
// disk store, a peer ring with Self set, and a peer client — repair is
// meaningless without a place to land keys, an identity that owns
// them, and peers to pull from.
func NewRepairer(t *Tier, cfg RepairConfig) (*Repairer, error) {
	if t == nil || t.disk == nil || t.ring == nil || t.client == nil {
		return nil, fmt.Errorf("tier: repair needs a disk store and a peer ring")
	}
	if t.ring.Self() == "" {
		return nil, fmt.Errorf("tier: repair needs Self set (whose keys would it pull?)")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.MaxKeysPerRound <= 0 {
		cfg.MaxKeysPerRound = 256
	}
	return &Repairer{t: t, cfg: cfg}, nil
}

// Round performs one bounded repair pass and returns the number of
// keys pulled: it lists every available peer's manifest, in ring order,
// and pulls each advertised key this member owns and lacks locally.
// Keys past the round's key/byte bounds (and failed pulls) are left for
// the next round and counted in the Missing gauge; a manifest that
// cannot be fetched counts one failure and skips that peer.
func (r *Repairer) Round(ctx context.Context) int {
	pulled, missing := 0, 0
	var pulledBytes int64
	settled := make(map[string]bool)
	self := r.t.ring.Self()
	for _, peer := range r.t.ring.Peers() {
		if peer == self || ctx.Err() != nil || !r.t.client.Available(peer) {
			continue
		}
		keys, ok := r.t.client.Manifest(ctx, peer)
		if !ok {
			r.failures.Add(1)
			continue
		}
		for _, key := range keys {
			if settled[key] || !r.t.ring.OwnedBySelf(key) || r.t.disk.Has(key) {
				continue
			}
			if pulled >= r.cfg.MaxKeysPerRound || pulledBytes >= maxBytesPerRound || ctx.Err() != nil {
				missing++
				settled[key] = true
				continue
			}
			blob, err := r.t.client.Fetch(ctx, peer, key)
			if err == ErrPeerMiss {
				// Evicted between the peer's manifest and this pull:
				// nothing failed, and a later peer advertising the key
				// too may still supply it this round.
				continue
			}
			settled[key] = true
			// The same envelope gate as ServePut: a damaged pull never
			// lands on disk (and is retried from the fleet next round).
			if err == nil {
				_, _, err = Open(blob)
			}
			if err == nil {
				err = r.t.disk.Put(key, blob)
			}
			if err != nil {
				r.failures.Add(1)
				missing++
				continue
			}
			pulled++
			pulledBytes += int64(len(blob))
		}
	}
	r.rounds.Add(1)
	r.keysPulled.Add(uint64(pulled))
	r.bytesPulled.Add(uint64(pulledBytes))
	r.missing.Store(int64(missing))
	return pulled
}

// Run repairs every Interval until ctx is cancelled. The first round
// runs after one full interval — a daemon joining a fleet that is
// still starting up should not race its peers' listeners — so a
// rejoined member converges within Interval plus a bounded number of
// rounds.
func (r *Repairer) Run(ctx context.Context) {
	ticker := time.NewTicker(r.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.Round(ctx)
		}
	}
}

// Stats snapshots the repairer.
func (r *Repairer) Stats() RepairStats {
	return RepairStats{
		Rounds:      r.rounds.Load(),
		KeysPulled:  r.keysPulled.Load(),
		BytesPulled: r.bytesPulled.Load(),
		Failures:    r.failures.Load(),
		Missing:     int(r.missing.Load()),
	}
}
