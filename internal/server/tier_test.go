package server

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"samr/internal/tier"
)

// fleetMember is one daemon of an in-process fleet.
type fleetMember struct {
	srv *Server
	ts  *httptest.Server
	url string
	dir string
}

// newFleet starts n samrd instances that know each other as tier
// peers. Listeners are allocated up front so every member's URL is
// known before any server is built — the peer list must be identical
// across the fleet.
func newFleet(t *testing.T, n int) []*fleetMember {
	t.Helper()
	members := make([]*fleetMember, n)
	urls := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range members {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range members {
		dir := t.TempDir()
		srv, err := New(Config{
			TierDir:   dir,
			TierPeers: urls,
			TierSelf:  urls[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close() //nolint:errcheck
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		members[i] = &fleetMember{srv: srv, ts: ts, url: urls[i], dir: dir}
	}
	return members
}

// normalize zeroes the per-request disposition fields, which are the
// only part of a partition response that legitimately differs between
// the daemon that computed a result and a daemon that tier-served it.
func normalize(resp *PartitionResponse) {
	for i := range resp.Results {
		resp.Results[i].Cached = false
		resp.Results[i].Cache = ""
	}
}

func normalizedBody(t *testing.T, resp PartitionResponse) string {
	t.Helper()
	normalize(&resp)
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestFleetTierServesPeerComputedPartition is the headline fleet
// property: a partition computed by any member is served byte-identically
// by every other member without recomputation.
func TestFleetTierServesPeerComputedPartition(t *testing.T) {
	fleet := newFleet(t, 3)
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(3)
	req.Hierarchy = &h

	// Member A computes: a plain miss, stored to disk and offered to
	// the key's ring owner.
	var respA PartitionResponse
	rA := post(t, fleet[0].url+"/v1/partition", req, &respA)
	if got := rA.Header.Get("X-Samr-Cache"); got != "miss" {
		t.Fatalf("computing daemon X-Samr-Cache = %q, want miss", got)
	}
	want := normalizedBody(t, respA)

	// Every other member serves the identical decomposition from the
	// tier: no local entry, no recomputation.
	for _, m := range fleet[1:] {
		var resp PartitionResponse
		r := post(t, m.url+"/v1/partition", req, &resp)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", m.url, r.StatusCode)
		}
		if got := r.Header.Get("X-Samr-Cache"); got != "tier" {
			t.Errorf("%s: X-Samr-Cache = %q, want tier", m.url, got)
		}
		if !resp.Results[0].Cached || resp.Results[0].Cache != CacheTier {
			t.Errorf("%s: disposition = %+v", m.url, resp.Results[0].Cache)
		}
		if got := normalizedBody(t, resp); got != want {
			t.Errorf("%s: tier-served body differs from computed body\n got: %s\nwant: %s", m.url, got, want)
		}
	}

	// A tier-less daemon recomputing from scratch agrees too: the tier
	// only moved bytes, it never changed an answer.
	_, plain := newTestServer(t, Config{})
	var respP PartitionResponse
	post(t, plain.URL+"/v1/partition", req, &respP)
	if got := normalizedBody(t, respP); got != want {
		t.Errorf("tier-less recomputation differs from fleet body\n got: %s\nwant: %s", got, want)
	}

	// The serving members' stats carry the tier accounting.
	var stats StatsResponse
	post(t, fleet[1].url+"/v1/partition", req, nil) // warm: now a local hit
	getJSON(t, fleet[1].url+"/v1/stats", &stats)
	if stats.Cache.Tier != 1 {
		t.Errorf("cache.tier = %d, want 1", stats.Cache.Tier)
	}
	if stats.Tier == nil || stats.Tier.Lookups == 0 {
		t.Errorf("stats.tier missing or empty: %+v", stats.Tier)
	}
}

// TestFleetTierPeerDownFallsBackToCompute kills fleet members and
// floods the survivor: every response must succeed (by local compute at
// worst); a dead peer is never a client-visible error.
func TestFleetTierPeerDownFallsBackToCompute(t *testing.T) {
	fleet := newFleet(t, 3)
	// One member is already dead; another is killed mid-flood. Every
	// request to the survivor must still succeed.
	fleet[1].ts.Close()
	var killOnce sync.Once

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if w == 0 && i == 3 {
					killOnce.Do(fleet[2].ts.Close)
				}
				req := PartitionRequest{Partitioner: "domain", NProcs: 4}
				h := testHierarchy((w*8 + i) % 24)
				req.Hierarchy = &h
				var resp PartitionResponse
				r := post(t, fleet[0].url+"/v1/partition", req, &resp)
				if r.StatusCode != http.StatusOK {
					errs <- r.Status
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for status := range errs {
		t.Errorf("request failed with %s while peers were down", status)
	}
}

// TestTierCorruptDiskEntryFallsBack damages a stored blob on disk: the
// next daemon to read it must fall back to computing, quarantine the
// entry, and still answer correctly.
func TestTierCorruptDiskEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(5)
	req.Hierarchy = &h

	// First daemon computes and persists the entry.
	srv1, ts1 := newTestServer(t, Config{TierDir: dir})
	var resp1 PartitionResponse
	post(t, ts1.URL+"/v1/partition", req, &resp1)
	if srv1.Tier().Disk().Len() != 1 {
		t.Fatalf("disk entries = %d, want 1", srv1.Tier().Disk().Len())
	}

	// Damage every stored blob in place.
	entries, err := filepath.Glob(filepath.Join(dir, "*.tier"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("tier entries on disk: %v (err %v)", entries, err)
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(entries[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// A restarted daemon (same dir, cold memory cache) reads the
	// damaged entry, rejects it, computes, and still answers right.
	srv2, ts2 := newTestServer(t, Config{TierDir: dir})
	var resp2 PartitionResponse
	r := post(t, ts2.URL+"/v1/partition", req, &resp2)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d after corrupt tier entry", r.StatusCode)
	}
	if got := r.Header.Get("X-Samr-Cache"); got != "miss" {
		t.Errorf("X-Samr-Cache = %q, want miss (corrupt blob is a miss)", got)
	}
	if got, want := normalizedBody(t, resp2), normalizedBody(t, resp1); got != want {
		t.Errorf("post-corruption recomputation differs from original")
	}
	if st := srv2.Tier().Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	// The damaged blob was quarantined and the fresh compute re-stored
	// a clean one: whatever is on disk now must decode.
	key := strings.TrimSuffix(filepath.Base(entries[0]), ".tier")
	if fresh, ok := srv2.Tier().Disk().Get(key); ok {
		if _, err := tier.DecodeAssignment(fresh); err != nil {
			t.Errorf("corrupt blob still on disk: %v", err)
		}
	}
}

// TestTierOffWireIdentity pins the compatibility contract: with no tier
// configured, routes, headers, and bodies are exactly the tier-less
// server's.
func TestTierOffWireIdentity(t *testing.T) {
	srvOff, off := newTestServer(t, Config{})
	_, on := newTestServer(t, Config{TierDir: t.TempDir()})
	if srvOff.Tier() != nil {
		t.Fatal("tier built without tier config")
	}

	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(7)
	req.Hierarchy = &h

	// A cold first request: both compute, bodies must be byte-identical
	// (the tier only kicks in as a source of bytes, never a change to
	// them) and the tier-off response must not carry tier headers.
	rOff := post(t, off.URL+"/v1/partition", req, nil)
	rOn := post(t, on.URL+"/v1/partition", req, nil)
	bodyOff, _ := io.ReadAll(rOff.Body)
	bodyOn, _ := io.ReadAll(rOn.Body)
	if string(bodyOff) != string(bodyOn) {
		t.Errorf("cold partition bodies differ:\n off: %s\n  on: %s", bodyOff, bodyOn)
	}
	if rOff.Header.Get("X-Samr-Cache-Tier") != "" {
		t.Error("tier-off response carries X-Samr-Cache-Tier")
	}
	if rOn.Header.Get("X-Samr-Cache-Tier") == "" {
		t.Error("tier-on response lacks X-Samr-Cache-Tier")
	}

	// The tier-off stats body has no tier key at all.
	raw := getRaw(t, off.URL+"/v1/stats")
	if strings.Contains(string(raw), `"tier"`) {
		t.Errorf("tier-off stats body mentions tier: %s", raw)
	}

	// The peer protocol is not routed while the tier is off.
	resp, err := http.Get(off.URL + "/v1/tier/" + tier.Key("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tier-off GET /v1/tier = %d, want 404", resp.StatusCode)
	}
}

// TestPostmapSpecNeverTouchesTier pins the stateful-partitioner
// exclusion: postmap results depend on request history, so the fleet
// tier must neither serve nor store them.
func TestPostmapSpecNeverTouchesTier(t *testing.T) {
	fleet := newFleet(t, 2)
	req := PartitionRequest{Partitioner: "postmap(domain)", NProcs: 8}
	h := testHierarchy(2)
	req.Hierarchy = &h

	post(t, fleet[0].url+"/v1/partition", req, nil)
	r := post(t, fleet[1].url+"/v1/partition", req, nil)
	if got := r.Header.Get("X-Samr-Cache"); got != "miss" {
		t.Errorf("postmap on second daemon X-Samr-Cache = %q, want miss", got)
	}
	for i, m := range fleet {
		if st := m.srv.Tier().Stats(); st.Lookups != 0 || st.Stores != 0 {
			t.Errorf("daemon %d tier touched by postmap: %+v", i, st)
		}
	}
}

// TestTierPeerProtocolValidates exercises the peer endpoints directly:
// garbage keys and garbage blobs never reach the disk store.
func TestTierPeerProtocolValidates(t *testing.T) {
	srv, ts := newTestServer(t, Config{TierDir: t.TempDir()})

	put := func(key string, body string) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/tier/"+key, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		return resp.StatusCode
	}

	if code := put(tier.Key("k"), "definitely not a sealed tier blob"); code != http.StatusBadRequest {
		t.Errorf("garbage blob PUT = %d, want 400", code)
	}
	if code := put("not-a-valid-key", ""); code != http.StatusBadRequest {
		t.Errorf("bad key PUT = %d, want 400", code)
	}
	if srv.Tier().Disk().Len() != 0 {
		t.Error("invalid PUT reached the disk store")
	}

	resp, err := http.Get(ts.URL + "/v1/tier/" + tier.Key("absent"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("absent key GET = %d, want 404", resp.StatusCode)
	}
}

// TestSelfHealingOffWireIdentity pins the self-healing compatibility
// contract: with no faults and repair disabled, a healthy tier fleet's
// stats body carries none of the new keys (failover counters, breaker
// list, repair block) and the manifest route does not exist — the wire
// surface is exactly the previous release's.
func TestSelfHealingOffWireIdentity(t *testing.T) {
	fleet := newFleet(t, 2)
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(9)
	req.Hierarchy = &h
	post(t, fleet[0].url+"/v1/partition", req, nil)
	post(t, fleet[1].url+"/v1/partition", req, nil) // tier-served

	for _, m := range fleet {
		raw := string(getRaw(t, m.url+"/v1/stats"))
		for _, key := range []string{"failover_reads", "failover_stores", "breakers", "repair"} {
			if strings.Contains(raw, `"`+key+`"`) {
				t.Errorf("%s: healthy repair-less stats body mentions %q: %s", m.url, key, raw)
			}
		}
		resp, err := http.Get(m.url + "/v1/tier/manifest")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: repair-less GET /v1/tier/manifest = %d, want 404", m.url, resp.StatusCode)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	raw := getRaw(t, url)
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decoding %s: %v\n%s", url, err, raw)
	}
}

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
