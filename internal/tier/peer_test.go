package tier

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samr/internal/partition"
)

var bg = context.Background()

// fastPeer is a client whose timeout and cooldown keep tests quick.
func fastPeer() *PeerClient {
	c := newPeerClient()
	c.hc = &http.Client{Timeout: time.Second}
	c.failLimit = 2
	c.cooldown = 50 * time.Millisecond
	return c
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
// Retry-After of 30 s costs a lookup one request and no wait, not the
// 30 s it names. The lookup is a miss, and the failure feeds the
// breaker once.
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
	if calls.Load() != 1 {
		t.Errorf("peer saw %d requests, want 1", calls.Load())
	}
	st := tr.Stats()
	if st.Misses != 1 || len(st.Breakers) != 1 || st.Breakers[0].Fails != 1 {
		t.Errorf("stats = %+v, want one miss and one failure on the peer's breaker", st)
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

// TestPeerFailuresCountEveryFailedExchange: one failed offer reads
// PeerFailures 1 in the tier's stats while the owner's breaker is still
// closed (one failure of the three that open it), next to the listed
// breaker that saw it.
func TestPeerFailuresCountEveryFailedExchange(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer owner.Close()
	self := "http://self.invalid:1"
	tr, err := New(Config{Dir: t.TempDir(), Self: self, Peers: []string{self, owner.URL}})
	if err != nil {
		t.Fatal(err)
	}
	var key string
	for i := 0; key == ""; i++ {
		if k := Key("probe", string(rune(i))); tr.ring.Owner(k) == owner.URL {
			key = k
		}
	}
	tr.Store(key, smallBlob())
	st := tr.Stats()
	if st.PeerPuts != 1 || st.PeerFailures != 1 {
		t.Fatalf("after one failed offer: peer puts %d, peer failures %d, want 1 and 1", st.PeerPuts, st.PeerFailures)
	}
	want := []BreakerState{{Peer: owner.URL, State: BreakerClosed, Fails: 1}}
	if !reflect.DeepEqual(st.Breakers, want) {
		t.Fatalf("breakers = %+v, want %+v", st.Breakers, want)
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
// key's owner peer, no local copy of a peer hit, owner offer on store.
func TestTierComposite(t *testing.T) {
	ownerStore := map[string][]byte{}
	owner := httptest.NewServer(tierHandler(ownerStore))
	defer owner.Close()

	tr, err := New(Config{Dir: t.TempDir(), Peers: []string{owner.URL}})
	if err != nil {
		t.Fatal(err)
	}

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

	// A peer-only key: lookup falls through disk to the owner, and the
	// local disk still holds only the stored key.
	key2 := Key("y")
	ownerStore[key2] = smallBlob()
	blob, ok := tr.Lookup(bg, key2)
	if !ok || !bytes.Equal(blob, ownerStore[key2]) {
		t.Fatal("peer-level lookup failed")
	}
	if _, ok := tr.Disk().Get(key2); ok {
		t.Fatal("peer hit was written through to disk")
	}
	if n := tr.Disk().Len(); n != 1 {
		t.Fatalf("disk holds %d entries after a store and a peer hit, want 1", n)
	}
	st := tr.Stats()
	if st.DiskHits != 0 || st.PeerHits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// LookupAs hands the blob to its decoder; a blob the decoder
	// refuses is a miss, counted corrupt, and its local entry dropped.
	if n, ok := LookupAs(bg, tr, key, func(b []byte) (int, error) { return len(b), nil }); !ok || n != len(smallBlob()) {
		t.Fatalf("LookupAs = (%d, %v), want the stored blob decoded", n, ok)
	}
	refuse := func([]byte) (int, error) { return 0, ErrCorrupt }
	if _, ok := LookupAs(bg, tr, key, refuse); ok {
		t.Fatal("LookupAs served a blob its decoder refused")
	}
	if _, ok := tr.Disk().Get(key); ok {
		t.Fatal("a refused entry survived on disk")
	}
	if st := tr.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
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
	if n := self.tr.Disk().Len(); n != 0 {
		t.Fatalf("failover read left %d entries on the local disk, want 0", n)
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

// TestTierHitWritesNothing pins that a lookup answered by a peer
// leaves the local disk as it found it: a peer hit, a failover read,
// and a hit whose owner answers garbage bytes each change neither the
// directory listing (the log alone, no put-*.tmp), the log's length
// nor the store's put count. A peer-served blob is kept only by the
// caller.
func TestTierHitWritesNothing(t *testing.T) {
	ms := newMembers(t, 3)
	self := ms[2]
	byURL := map[string]*member{}
	for _, m := range ms {
		byURL[m.ts.URL] = m
	}
	// ownedBy finds a fresh key whose rendezvous order puts owner first;
	// standIn is the first member after it other than self.
	ownedBy := func(tag, owner string) (key, standIn string) {
		for i := 0; ; i++ {
			k := Key(tag, fmt.Sprint(i))
			ranked := self.tr.ring.Ranked(k)
			if ranked[0] != owner {
				continue
			}
			for _, p := range ranked[1:] {
				if p != self.ts.URL {
					return k, p
				}
			}
		}
	}
	owner, other := ms[0].ts.URL, ms[1].ts.URL

	// The local disk holds one self-owned entry, so the listing under
	// test is not trivially empty.
	local, _ := ownedBy("local", self.ts.URL)
	if err := self.tr.Disk().Put(local, smallBlob()); err != nil {
		t.Fatal(err)
	}
	dir := self.tr.Disk().dir
	listing := func() []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(des))
		for i, de := range des {
			names[i] = de.Name()
		}
		return names
	}
	want := listing()
	if len(want) != 1 || want[0] != logName {
		t.Fatalf("local listing = %v, want only %s", want, logName)
	}
	size := logSize(t, dir)
	if size != recFramed+int64(len(smallBlob())) {
		t.Fatalf("local log of %d bytes, want the one entry's record", size)
	}
	puts := self.tr.Disk().puts.Load()
	unchanged := func(what string) {
		t.Helper()
		if got := listing(); !slices.Equal(got, want) {
			t.Fatalf("%s: local listing %v, want %v", what, got, want)
		}
		if got := logSize(t, dir); got != size {
			t.Fatalf("%s: local log of %d bytes, want %d", what, got, size)
		}
		if n := self.tr.Disk().puts.Load(); n != puts {
			t.Fatalf("%s: store put count %d, want %d", what, n, puts)
		}
	}

	// A peer hit: the owner holds the blob.
	hit, _ := ownedBy("hit", owner)
	if err := byURL[owner].tr.Disk().Put(hit, smallBlob()); err != nil {
		t.Fatal(err)
	}
	if blob, ok := self.tr.Lookup(bg, hit); !ok || !bytes.Equal(blob, smallBlob()) {
		t.Fatal("peer hit missed")
	}
	unchanged("peer hit")

	// Garbage: the owner's store holds bytes that are no sealed blob,
	// and Lookup hands them to the caller unverified.
	garbage, _ := ownedBy("garbage", owner)
	if err := byURL[owner].tr.Disk().Put(garbage, []byte("not a blob")); err != nil {
		t.Fatal(err)
	}
	if blob, ok := self.tr.Lookup(bg, garbage); !ok || string(blob) != "not a blob" {
		t.Fatal("garbage answer was not handed to the caller")
	}
	unchanged("garbage answer")

	// A failover read: other's breaker is open, so its stand-in answers.
	c := self.tr.client
	for i := 0; i < 3; i++ {
		c.report(other, false)
	}
	fo, standIn := ownedBy("failover", other)
	if err := byURL[standIn].tr.Disk().Put(fo, smallBlob()); err != nil {
		t.Fatal(err)
	}
	if _, ok := self.tr.Lookup(bg, fo); !ok {
		t.Fatal("failover read missed")
	}
	unchanged("failover read")

	if st := self.tr.Stats(); st.PeerHits != 3 || st.FailoverReads != 1 || st.DiskHits != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 3 peer hits, 1 of them a failover read", st)
	}
}

// smallBlob is a valid sealed blob for tests that only need envelope
// validity, not interesting contents.
func smallBlob() []byte {
	return EncodeAssignment(&partition.Assignment{NumProcs: 4})
}
