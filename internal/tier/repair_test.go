package tier

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"samr/internal/backoff"
	"samr/internal/fault"
)

// member is one live fleet participant for repair tests: a Tier served
// over the real peer protocol (blobs and manifest) by an httptest
// server. The handler closes over the member so the server can start —
// and its URL enter the shared peer list — before the Tier exists.
// gets counts blob fetches served, so tests can assert what a peer was
// (or was not) asked for. ghost, when set, is one more key the manifest
// advertises though the store does not hold it: a key evicted between
// the manifest and the fetch.
type member struct {
	tr    *Tier
	ts    *httptest.Server
	gets  atomic.Int64
	ghost string
}

func newMembers(t *testing.T, n int) []*member {
	t.Helper()
	ms := make([]*member, n)
	urls := make([]string, n)
	for i := range ms {
		m := &member{}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/tier/manifest", func(w http.ResponseWriter, r *http.Request) {
			m.tr.ServeManifest(w)
			if m.ghost != "" {
				fmt.Fprintln(w, m.ghost)
			}
		})
		mux.HandleFunc("GET /v1/tier/{key}", func(w http.ResponseWriter, r *http.Request) {
			m.gets.Add(1)
			m.tr.ServeGet(w, r.PathValue("key"))
		})
		mux.HandleFunc("PUT /v1/tier/{key}", func(w http.ResponseWriter, r *http.Request) {
			blob, _ := io.ReadAll(r.Body)
			m.tr.ServePut(w, r.PathValue("key"), blob)
		})
		m.ts = httptest.NewServer(mux)
		t.Cleanup(m.ts.Close)
		urls[i] = m.ts.URL
		ms[i] = m
	}
	for _, m := range ms {
		tr, err := New(Config{
			Dir:   t.TempDir(),
			Peers: urls,
			Self:  m.ts.URL,
			Peer:  PeerConfig{Retry: backoff.Policy{Attempts: 2, Base: time.Millisecond}},
		})
		if err != nil {
			t.Fatal(err)
		}
		m.tr = tr
	}
	return ms
}

// keysOwnedBy generates n distinct keys owned by owner under the ring.
func keysOwnedBy(t *testing.T, r *Ring, owner string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatal("could not find enough owned keys")
		}
		key := Key("owned", fmt.Sprint(i))
		if r.Owner(key) == owner {
			out = append(out, key)
		}
	}
	return out
}

func TestServeManifestAndFetch(t *testing.T) {
	ms := newMembers(t, 2)
	a, b := ms[0], ms[1]
	want := []string{Key("m", "1"), Key("m", "2"), Key("m", "3")}
	for _, key := range want {
		if err := b.tr.Disk().Put(key, smallBlob()); err != nil {
			t.Fatal(err)
		}
	}
	keys, ok := a.tr.client.Manifest(bg, b.ts.URL)
	if !ok || len(keys) != len(want) {
		t.Fatalf("Manifest = (%v, %v), want %d keys", keys, ok, len(want))
	}
	seen := map[string]bool{}
	for _, key := range keys {
		seen[key] = true
	}
	for _, key := range want {
		if !seen[key] {
			t.Fatalf("manifest lacks stored key %s", key)
		}
	}

	// A peer without the manifest route — repair disabled there, or an
	// older build — reports an empty manifest and stays healthy.
	old := httptest.NewServer(tierHandler(map[string][]byte{}))
	defer old.Close()
	keys, ok = a.tr.client.Manifest(bg, old.URL)
	if !ok || len(keys) != 0 {
		t.Fatalf("routeless peer Manifest = (%v, %v), want empty and ok", keys, ok)
	}
	if got := breakerStateOf(a.tr.client, old.URL); got != BreakerClosed {
		t.Fatalf("routeless peer breaker = %q, want closed", got)
	}
}

// TestRepairConvergence is the rejoin scenario: member A's disk is
// empty (wiped) while member B holds blobs for keys A owns. Bounded
// rounds pull them all back, the Missing gauge falling to 0, and further
// rounds are pure manifest exchanges — also across a key the peer
// evicted between manifest and fetch, and a peer restart with a
// different key set.
func TestRepairConvergence(t *testing.T) {
	ms := newMembers(t, 2)
	a, b := ms[0], ms[1]
	owned := keysOwnedBy(t, a.tr.ring, a.ts.URL, 7)
	owned, ghost, later := owned[:5], owned[5], owned[6]
	for _, key := range owned {
		if err := b.tr.Disk().Put(key, smallBlob()); err != nil {
			t.Fatal(err)
		}
	}
	// A non-owned key on B must never be pulled.
	foreign := keysOwnedBy(t, a.tr.ring, b.ts.URL, 1)[0]
	if err := b.tr.Disk().Put(foreign, smallBlob()); err != nil {
		t.Fatal(err)
	}

	rep, err := NewRepairer(a.tr, RepairConfig{MaxKeysPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}

	// MaxKeysPerRound 2 over 5 keys: exactly ceil(5/2) = 3 rounds, each
	// leaving the rest of the deficit in the gauge.
	left := len(owned)
	for i, want := range []int{2, 2, 1} {
		if got := rep.Round(bg); got != want {
			t.Fatalf("round %d pulled %d keys, want %d", i+1, got, want)
		}
		left -= want
		if got := rep.Stats().Missing; got != left {
			t.Fatalf("round %d left Missing = %d, want %d", i+1, got, left)
		}
	}
	for _, key := range owned {
		blob, ok := a.tr.Disk().Get(key)
		if !ok {
			t.Fatalf("repaired key %s absent from disk", key)
		}
		if _, _, err := Open(blob); err != nil {
			t.Fatalf("repaired key %s holds a bad envelope: %v", key, err)
		}
	}
	if a.tr.Disk().Has(foreign) {
		t.Fatal("repair pulled a key this member does not own")
	}

	// Idempotence: a warm member's round pulls nothing and asks the
	// peer for no blob.
	before := b.gets.Load()
	if got := rep.Round(bg); got != 0 {
		t.Fatalf("converged round pulled %d keys, want 0", got)
	}
	if b.gets.Load() != before {
		t.Fatal("converged round still fetched blobs")
	}
	st := rep.Stats()
	if st.Rounds != 4 || st.KeysPulled != 5 || st.Failures != 0 || st.Missing != 0 {
		t.Fatalf("repair stats = %+v", st)
	}
	if st.BytesPulled != uint64(5*len(smallBlob())) {
		t.Fatalf("bytes_pulled = %d, want %d", st.BytesPulled, 5*len(smallBlob()))
	}

	// A key the peer evicted between its manifest and the fetch is a
	// clean miss (ErrPeerMiss): skipped, neither a failure nor a deficit.
	b.ghost = ghost
	if got := rep.Round(bg); got != 0 {
		t.Fatalf("round over an evicted key pulled %d keys, want 0", got)
	}
	if b.gets.Load() != before+1 {
		t.Fatalf("evicted key cost %d fetches, want 1", b.gets.Load()-before)
	}
	if st := rep.Stats(); st.Failures != 0 || st.Missing != 0 {
		t.Fatalf("clean miss counted against the round: %+v", st)
	}
	b.ghost = ""

	// B restarts wiped with a different key set: a fresh Tier on an
	// empty dir behind the same URL (the test mux closes over the
	// member, so swapping tr is the restart). The repairer keeps nothing
	// between rounds, so the next listing is all there is to know.
	fresh, err := New(Config{
		Dir:   t.TempDir(),
		Peers: []string{a.ts.URL, b.ts.URL},
		Self:  b.ts.URL,
		Peer:  PeerConfig{Retry: backoff.Policy{Attempts: 2, Base: time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.tr = fresh
	if err := b.tr.Disk().Put(later, smallBlob()); err != nil {
		t.Fatal(err)
	}
	if got := rep.Round(bg); got != 1 || !a.tr.Disk().Has(later) {
		t.Fatalf("post-restart round pulled %d keys, want the restarted peer's 1", got)
	}
}

// TestRepairRejectsCorruptPull pins the envelope gate: a damaged blob
// pulled from a peer never lands on disk; it stays in the deficit and
// counts as a failure.
func TestRepairRejectsCorruptPull(t *testing.T) {
	ms := newMembers(t, 2)
	a, b := ms[0], ms[1]
	key := keysOwnedBy(t, a.tr.ring, a.ts.URL, 1)[0]
	bad := fault.Damage(smallBlob())
	if err := b.tr.Disk().Put(key, bad); err != nil {
		t.Fatal(err)
	}

	rep, err := NewRepairer(a.tr, RepairConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Round(bg); got != 0 {
		t.Fatalf("round pulled %d keys, want 0 (corrupt source)", got)
	}
	if a.tr.Disk().Has(key) {
		t.Fatal("corrupt pull landed on disk")
	}
	st := rep.Stats()
	if st.Failures == 0 || st.Missing != 1 {
		t.Fatalf("repair stats = %+v, want a counted failure and 1 missing", st)
	}
}

// TestFailoverReadAndStore drives breaker state into the ring: with the
// owner's breaker open, a lookup consults the next peer in rendezvous
// order (one hop) and a store diverts its offer there, and both are
// counted.
func TestFailoverReadAndStore(t *testing.T) {
	ms := newMembers(t, 3)
	self := ms[2]
	byURL := map[string]*member{}
	for _, m := range ms {
		byURL[m.ts.URL] = m
	}
	// A key owned by another member, with its fleet-wide stand-in (the
	// first available non-self peer after the owner in rendezvous order).
	var key, owner, standIn string
	for i := 0; standIn == ""; i++ {
		k := Key("failover", fmt.Sprint(i))
		ranked := self.tr.ring.Ranked(k)
		if ranked[0] == self.ts.URL {
			continue
		}
		for _, p := range ranked[1:] {
			if p != self.ts.URL {
				key, owner, standIn = k, ranked[0], p
				break
			}
		}
	}

	// Open the owner's breaker as self sees it (default FailLimit 3).
	c := self.tr.client
	for i := 0; i < 3; i++ {
		c.report(owner, false)
	}
	if c.Available(owner) {
		t.Fatal("owner breaker still admits traffic")
	}

	// Failover read: the blob lives only on the stand-in.
	if err := byURL[standIn].tr.Disk().Put(key, smallBlob()); err != nil {
		t.Fatal(err)
	}
	blob, ok := self.tr.Lookup(bg, key)
	if !ok || !bytes.Equal(blob, smallBlob()) {
		t.Fatal("failover read missed a blob the stand-in holds")
	}
	if _, ok := self.tr.Disk().Get(key); !ok {
		t.Fatal("failover read skipped the disk write-through")
	}

	// Failover store: the offer lands on the stand-in, not the owner.
	key2 := ""
	for i := 0; key2 == ""; i++ {
		k := Key("failover-store", fmt.Sprint(i))
		if self.tr.ring.Owner(k) == owner {
			key2 = k
		}
	}
	self.tr.Store(key2, smallBlob())
	ranked2 := self.tr.ring.Ranked(key2)
	var standIn2 string
	for _, p := range ranked2[1:] {
		if p != self.ts.URL {
			standIn2 = p
			break
		}
	}
	if !byURL[standIn2].tr.Disk().Has(key2) {
		t.Fatal("failover store never reached the stand-in")
	}
	if byURL[owner].tr.Disk().Has(key2) {
		t.Fatal("failover store reached the open owner")
	}

	st := self.tr.Stats()
	if st.FailoverReads != 1 || st.FailoverStores != 1 {
		t.Fatalf("failover counters = (%d, %d), want (1, 1)", st.FailoverReads, st.FailoverStores)
	}
	found := false
	for _, b := range st.Breakers {
		if b.Peer == owner && b.State == BreakerOpen {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats breakers = %+v, want the owner open", st.Breakers)
	}
}

// TestPeerClientInjectedFaults pins the injection contract: an injected
// peer.get error feeds the breaker without sending any request, and an
// injected manifest error fails the fetch the same way.
func TestPeerClientInjectedFaults(t *testing.T) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "not found", http.StatusNotFound)
	}))
	defer ts.Close()
	in, err := fault.New(7,
		fault.Plan{Point: FaultPeerGet, Mode: fault.Error},
		fault.Plan{Point: FaultPeerManifest, Mode: fault.Error},
	)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPeerClient(PeerConfig{
		Retry:     backoff.Policy{Attempts: 2, Base: time.Millisecond},
		FailLimit: 1,
		Faults:    in,
	})
	if _, err := c.Fetch(bg, ts.URL, Key("a")); err == nil {
		t.Fatal("injected transport failure reported a hit")
	}
	if calls != 0 {
		t.Fatal("injected failure still sent a request")
	}
	if got := breakerStateOf(c, ts.URL); got != BreakerOpen {
		t.Fatalf("breaker after injected failure = %q, want open (FailLimit 1)", got)
	}

	c2 := NewPeerClient(PeerConfig{
		Retry:  backoff.Policy{Attempts: 2, Base: time.Millisecond},
		Faults: in,
	})
	if _, ok := c2.Manifest(bg, ts.URL); ok {
		t.Fatal("injected manifest failure reported success")
	}
	if calls != 0 {
		t.Fatal("injected manifest failure still sent a request")
	}
}
