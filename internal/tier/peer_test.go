package tier

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samr/internal/partition"
)

var bg = context.Background()

// fastPeer is a client whose retries and cooldowns keep tests quick.
func fastPeer() *PeerClient {
	c := newPeerClient()
	c.hc = &http.Client{Timeout: time.Second}
	c.policy = retryPolicy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}
	c.failLimit = 2
	c.cooldown = 50 * time.Millisecond
	return c
}

// quickRetries shortens tr's retry waits to a millisecond base while
// keeping the fleet's attempt count and cap.
func quickRetries(tr *Tier) {
	tr.client.policy.Base = time.Millisecond
}

// tierHandler is a minimal in-memory peer-protocol server.
func tierHandler(store map[string][]byte) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tier/{key}", func(w http.ResponseWriter, r *http.Request) {
		blob, ok := store[r.PathValue("key")]
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Write(blob) //nolint:errcheck
	})
	mux.HandleFunc("PUT /v1/tier/{key}", func(w http.ResponseWriter, r *http.Request) {
		blob, _ := io.ReadAll(r.Body)
		store[r.PathValue("key")] = blob
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

func TestPeerClientGetPut(t *testing.T) {
	store := map[string][]byte{}
	ts := httptest.NewServer(tierHandler(store))
	defer ts.Close()
	c := fastPeer()

	key := Key("a")
	if _, err := c.Fetch(bg, ts.URL, key); err == nil {
		t.Fatal("absent key reported present")
	}
	if !c.Put(bg, ts.URL, key, []byte("blob")) {
		t.Fatal("Put failed against a healthy peer")
	}
	got, err := c.Fetch(bg, ts.URL, key)
	if err != nil || !bytes.Equal(got, []byte("blob")) {
		t.Fatalf("Fetch = (%q, %v)", got, err)
	}
}

// TestPeerClientIgnoresRetryAfter: a peer answering 503 with a
// Retry-After of 30 s costs a lookup the default policy's two quick
// attempts, not the 30 s it names. The lookup is a miss, and the
// failure feeds the breaker.
func TestPeerClientIgnoresRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30")
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	tr, err := New(Config{Peers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, ok := tr.Lookup(bg, Key("a"))
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("lookup took %v against a 503 + Retry-After: 30 peer, want well under 1s", took)
	}
	if ok {
		t.Fatal("a 503 peer served a hit")
	}
	if calls.Load() != 2 {
		t.Errorf("peer saw %d requests, want the policy's 2 attempts", calls.Load())
	}
	st := tr.Stats()
	if st.Misses != 1 || len(st.Breakers) != 1 || st.Breakers[0].Fails != 1 {
		t.Errorf("stats = %+v, want one miss and one failure on the peer's breaker", st)
	}
}

// fastRetry keeps the retry loop's waits well under a second.
var fastRetry = retryPolicy{Attempts: 4, Base: time.Millisecond, Max: 4 * time.Millisecond}

func TestRetrySucceedsFirstTry(t *testing.T) {
	calls := 0
	if err := retry(bg, fastRetry, func(context.Context) (bool, error) { calls++; return false, nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRetryRetriesOnlyRetryable(t *testing.T) {
	terminal := errors.New("terminal")
	calls := 0
	err := retry(bg, fastRetry, func(context.Context) (bool, error) { calls++; return false, terminal })
	if !errors.Is(err, terminal) || calls != 1 {
		t.Fatalf("terminal error: err=%v calls=%d, want immediate return", err, calls)
	}

	calls = 0
	err = retry(bg, fastRetry, func(context.Context) (bool, error) {
		calls++
		if calls < 3 {
			return true, fmt.Errorf("flaky %d", calls)
		}
		return false, nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("flaky op: err=%v calls=%d, want success on 3rd", err, calls)
	}
}

func TestRetryAttemptsExhaustedReturnsLastError(t *testing.T) {
	calls := 0
	err := retry(bg, fastRetry, func(context.Context) (bool, error) {
		calls++
		return true, fmt.Errorf("attempt %d", calls)
	})
	if calls != fastRetry.Attempts {
		t.Fatalf("calls = %d, want %d", calls, fastRetry.Attempts)
	}
	if err == nil || err.Error() != "attempt 4" {
		t.Fatalf("err = %v, want last attempt's error", err)
	}
}

func TestRetryContextCancelsSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- retry(ctx, retryPolicy{Attempts: 3, Base: time.Hour, Max: time.Hour}, func(context.Context) (bool, error) {
			calls++
			return true, errors.New("busy")
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the op fail and the sleep start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled retry kept sleeping")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRetryDeadContextBeforeFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	// The op still runs once (it sees the dead ctx itself); the retry
	// sleep is what ctx interrupts.
	err := retry(ctx, fastRetry, func(c context.Context) (bool, error) { return true, c.Err() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

// fakeClock is the injectable breaker clock: tests advance it instead
// of sleeping through cooldowns.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// breakerStateOf returns peer's exported breaker state string.
func breakerStateOf(c *PeerClient, peer string) string {
	for _, b := range c.BreakerStates() {
		if b.Peer == peer {
			return b.State
		}
	}
	return ""
}

func TestPeerClientBreakerOpensAndRecovers(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if fail.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("recovered")) //nolint:errcheck
	}))
	defer ts.Close()
	c := fastPeer() // FailLimit 2, Cooldown 50ms
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.Now

	// Two failing exchanges open the breaker (500 is terminal: one
	// request each).
	for i := 0; i < 2; i++ {
		if _, err := c.Fetch(bg, ts.URL, Key("a")); err == nil {
			t.Fatal("failing peer reported a hit")
		}
	}
	if got := breakerStateOf(c, ts.URL); got != BreakerOpen {
		t.Fatalf("state after %d failures = %q, want open", 2, got)
	}
	seen := calls.Load()
	// Open breaker: no request reaches the peer.
	if _, err := c.Fetch(bg, ts.URL, Key("a")); err == nil {
		t.Fatal("open breaker reported a hit")
	}
	if calls.Load() != seen {
		t.Fatal("open breaker let a request through")
	}
	if c.skips.Load() == 0 {
		t.Fatal("breaker skip not counted")
	}
	if c.Available(ts.URL) {
		t.Fatal("open breaker reported available")
	}

	// Cooldown elapses on the fake clock: the breaker is half-open (the
	// next exchange is the probe) and a healthy probe closes it.
	fail.Store(false)
	clk.Advance(60 * time.Millisecond)
	if got := breakerStateOf(c, ts.URL); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %q, want half-open", got)
	}
	if !c.Available(ts.URL) {
		t.Fatal("half-open breaker reported unavailable")
	}
	if got, err := c.Fetch(bg, ts.URL, Key("a")); err != nil || string(got) != "recovered" {
		t.Fatalf("post-cooldown probe = (%q, %v)", got, err)
	}
	if got := breakerStateOf(c, ts.URL); got != BreakerClosed {
		t.Fatalf("state after successful probe = %q, want closed", got)
	}
	if got, err := c.Fetch(bg, ts.URL, Key("a")); err != nil || string(got) != "recovered" {
		t.Fatalf("closed breaker = (%q, %v)", got, err)
	}
}

func TestPeerClientBreakerFailedProbeReopens(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := fastPeer() // FailLimit 2, Cooldown 50ms
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c.now = clk.Now

	for i := 0; i < 2; i++ {
		c.Fetch(bg, ts.URL, Key("a"))
	}
	if got := breakerStateOf(c, ts.URL); got != BreakerOpen {
		t.Fatalf("state = %q, want open", got)
	}

	// The cooldown elapses, the probe goes through — and fails, so the
	// breaker re-opens for a fresh cooldown without further traffic.
	clk.Advance(60 * time.Millisecond)
	seen := calls.Load()
	if _, err := c.Fetch(bg, ts.URL, Key("a")); err == nil {
		t.Fatal("failing probe reported a hit")
	}
	if calls.Load() == seen {
		t.Fatal("probe never reached the peer")
	}
	if got := breakerStateOf(c, ts.URL); got != BreakerOpen {
		t.Fatalf("state after failed probe = %q, want open", got)
	}
	seen = calls.Load()
	if _, err := c.Fetch(bg, ts.URL, Key("a")); err == nil || calls.Load() != seen {
		t.Fatal("re-opened breaker let a request through")
	}

	// Available is a read-only view: it neither consumes the probe nor
	// counts skips.
	clk.Advance(60 * time.Millisecond)
	skips := c.skips.Load()
	for i := 0; i < 3; i++ {
		if !c.Available(ts.URL) {
			t.Fatal("cooled-down breaker reported unavailable")
		}
	}
	if c.skips.Load() != skips {
		t.Fatal("Available counted a skip")
	}
	if got := breakerStateOf(c, ts.URL); got != BreakerHalfOpen {
		t.Fatalf("state after Available calls = %q, want half-open", got)
	}
}

// TestPeerClientCallerCancellationIsNoPeerFailure: fetches that end
// because the caller's own deadline passed, against a peer that is
// merely slow, leave the breaker closed however many there are; the
// same number of real 5xx answers opens it.
func TestPeerClientCallerCancellationIsNoPeerFailure(t *testing.T) {
	hanging := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // answers only once the caller gives up
	}))
	defer hanging.Close()
	c := fastPeer() // FailLimit 2
	for i := 0; i < c.failLimit+2; i++ {
		ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
		_, err := c.Fetch(ctx, hanging.URL, Key("a"))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("fetch %d against a hanging peer: err = %v, want the caller's deadline", i, err)
		}
	}
	if !c.Available(hanging.URL) || breakerStateOf(c, hanging.URL) == BreakerOpen {
		t.Fatalf("caller cancellations opened the breaker: %+v", c.BreakerStates())
	}
	for _, b := range c.BreakerStates() {
		if b.Fails != 0 {
			t.Fatalf("breaker %+v counts caller cancellations as failures", b)
		}
	}
	if n := c.failures.Load(); n != 0 {
		t.Fatalf("failures = %d, want 0", n)
	}

	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	for i := 0; i < c.failLimit+2; i++ {
		c.Fetch(bg, failing.URL, Key("a"))
	}
	if c.Available(failing.URL) || breakerStateOf(c, failing.URL) != BreakerOpen || c.failures.Load() == 0 {
		t.Fatalf("5xx answers left the breaker closed: %+v, failures %d", c.BreakerStates(), c.failures.Load())
	}
}

func TestPeerClientDeadPeerIsMiss(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listens anymore
	c := fastPeer()
	if _, err := c.Fetch(bg, ts.URL, Key("a")); err == nil {
		t.Fatal("dead peer reported a hit")
	}
	if c.Put(bg, ts.URL, Key("a"), []byte("x")) {
		t.Fatal("dead peer accepted a put")
	}
}

// TestTierComposite drives the assembled tier: disk first, then the
// key's owner peer, write-through on a peer hit, owner offer on store.
func TestTierComposite(t *testing.T) {
	ownerStore := map[string][]byte{}
	owner := httptest.NewServer(tierHandler(ownerStore))
	defer owner.Close()

	tr, err := New(Config{Dir: t.TempDir(), Peers: []string{owner.URL}})
	if err != nil {
		t.Fatal(err)
	}
	quickRetries(tr)

	key := Key("x")
	if _, ok := tr.Lookup(bg, key); ok {
		t.Fatal("empty tier reported a hit")
	}

	// Store: lands on disk and is offered to the owner peer.
	tr.Store(key, smallBlob())
	if _, ok := tr.Disk().Get(key); !ok {
		t.Fatal("store skipped the disk level")
	}
	if _, ok := ownerStore[key]; !ok {
		t.Fatal("store never offered the blob to the key's owner")
	}

	// A peer-only key: lookup falls through disk to the owner and
	// writes through.
	key2 := Key("y")
	ownerStore[key2] = smallBlob()
	blob, ok := tr.Lookup(bg, key2)
	if !ok || !bytes.Equal(blob, ownerStore[key2]) {
		t.Fatal("peer-level lookup failed")
	}
	if _, ok := tr.Disk().Get(key2); !ok {
		t.Fatal("peer hit was not written through to disk")
	}
	st := tr.Stats()
	if st.DiskHits != 0 || st.PeerHits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// ReportCorrupt drops the local entry.
	tr.ReportCorrupt(key)
	if _, ok := tr.Disk().Get(key); ok {
		t.Fatal("corrupt entry survived ReportCorrupt")
	}
}

func TestTierSelfOwnedKeySkipsHTTP(t *testing.T) {
	var calls atomic.Int32
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "not found", http.StatusNotFound)
	}))
	defer other.Close()

	self := "http://self.invalid:1"
	tr, err := New(Config{Dir: t.TempDir(), Self: self, Peers: []string{self, other.URL}})
	if err != nil {
		t.Fatal(err)
	}
	// Find keys for both ownership cases.
	var selfKey, otherKey string
	for i := 0; selfKey == "" || otherKey == ""; i++ {
		key := Key("probe", string(rune(i)))
		if tr.ring.Owner(key) == self {
			selfKey = key
		} else {
			otherKey = key
		}
	}
	// Self-owned: both lookup and store stay local — the other peer
	// sees no traffic.
	tr.Store(selfKey, smallBlob())
	if _, ok := tr.Lookup(bg, selfKey); !ok {
		t.Fatal("self-owned key not served from disk")
	}
	if calls.Load() != 0 {
		t.Fatal("self-owned key generated peer traffic")
	}
	// Other-owned: lookup consults the peer.
	tr.Lookup(bg, otherKey)
	if calls.Load() == 0 {
		t.Fatal("other-owned key never consulted its owner")
	}
}

// member is one live fleet participant: a Tier served over the real
// peer protocol by an httptest server. The handler closes over the
// member so the server can start — and its URL enter the shared peer
// list — before the Tier exists.
type member struct {
	tr *Tier
	ts *httptest.Server
}

func newMembers(t *testing.T, n int) []*member {
	t.Helper()
	ms := make([]*member, n)
	urls := make([]string, n)
	for i := range ms {
		m := &member{}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/tier/{key}", func(w http.ResponseWriter, r *http.Request) {
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
		tr, err := New(Config{Dir: t.TempDir(), Peers: urls, Self: m.ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		quickRetries(tr)
		m.tr = tr
	}
	return ms
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
	if _, ok := byURL[standIn2].tr.Disk().Get(key2); !ok {
		t.Fatal("failover store never reached the stand-in")
	}
	if _, ok := byURL[owner].tr.Disk().Get(key2); ok {
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

// smallBlob is a valid sealed blob for tests that only need envelope
// validity, not interesting contents.
func smallBlob() []byte {
	return EncodeAssignment(&partition.Assignment{NumProcs: 4})
}
