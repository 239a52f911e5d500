package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"samr/internal/partition"
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

	put := func(key string, body string) int { return putTier(t, ts.URL, key, []byte(body)) }

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
// contract: with no faults, a healthy tier fleet's stats body carries
// none of the self-healing keys (failover counters, breaker list) — the
// wire surface is exactly the previous release's. GET /v1/tier/manifest
// is no route: it falls to the {key} one, which no 8-letter key passes.
func TestSelfHealingOffWireIdentity(t *testing.T) {
	fleet := newFleet(t, 2)
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(9)
	req.Hierarchy = &h
	post(t, fleet[0].url+"/v1/partition", req, nil)
	post(t, fleet[1].url+"/v1/partition", req, nil) // tier-served

	for _, m := range fleet {
		raw := string(getRaw(t, m.url+"/v1/stats"))
		for _, key := range []string{"failover_reads", "failover_stores", "breakers"} {
			if strings.Contains(raw, `"`+key+`"`) {
				t.Errorf("%s: healthy stats body mentions %q: %s", m.url, key, raw)
			}
		}
		resp, err := http.Get(m.url + "/v1/tier/manifest")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: GET /v1/tier/manifest = %d, want 404", m.url, resp.StatusCode)
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

// putTier PUTs blob at base's peer-protocol door and returns the status.
func putTier(t *testing.T, base, key string, blob []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/tier/"+key, bytes.NewReader(blob))
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

// diskHas reports whether key is resident in srv's disk store.
func diskHas(srv *Server, key string) bool {
	_, ok := srv.Tier().Disk().Get(key)
	return ok
}

// TestHostileBlobDegradesToCompute: a sealed blob is not a trusted
// blob. The checksum is an envelope anyone can write, and the peer
// protocol is unguarded, so each of these arrives by PUT with a 204 —
// and must then cost a recompute (or, as a snapshot's mapping history, a
// plain 410), a quarantine and a corrupt count, never the daemon:
// served as decoded, the first allocates NumProcs words, the rest index
// past a load vector or a box, or loop 2^62 times. The "well-formed" row
// is the control: the same two doors serve an honest blob, so the
// others are refused for what they carry.
func TestHostileBlobDegradesToCompute(t *testing.T) {
	wire := testHierarchy(3)
	h, err := wire.toGrid()
	if err != nil {
		t.Fatal(err)
	}
	domain, err := ParsePartitioner("domain")
	if err != nil {
		t.Fatal(err)
	}
	at := func(nprocs int) *partition.Assignment {
		a, err := domain.Partition(context.Background(), h, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	mutate := func(f func(*partition.Assignment)) *partition.Assignment {
		a := at(4)
		a.Fragments = slices.Clone(a.Fragments)
		f(a)
		return a
	}
	cases := []struct {
		name   string
		a      *partition.Assignment
		honest bool
	}{
		{"well-formed", at(4), true},
		{"nprocs 2^40", mutate(func(a *partition.Assignment) { a.NumProcs = 1 << 40 }), false},
		{"owner 9 of 4", mutate(func(a *partition.Assignment) { a.Fragments[0].Owner = 9 }), false},
		{"dim 5", mutate(func(a *partition.Assignment) { a.Fragments[0].Box.Dim = 5 }), false},
		{"level 2^62", mutate(func(a *partition.Assignment) { a.Fragments[0].Level = 1 << 62 }), false},
		{"nprocs 8 under an nprocs 4 key", at(8), false},
	}

	req := PartitionRequest{Hierarchy: &wire, Partitioner: "domain", NProcs: 4}
	_, plain := newTestServer(t, Config{})
	var computed PartitionResponse
	post(t, plain.URL+"/v1/partition", req, &computed)
	want := normalizedBody(t, computed)

	put := func(url, key string, blob []byte) {
		t.Helper()
		if code := putTier(t, url, key, blob); code != http.StatusNoContent {
			t.Fatalf("PUT of a sealed blob = %d, want 204 (the envelope is all the peer door checks)", code)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{TierDir: t.TempDir(), TierSessions: true})

			// As the result for a partition key.
			key := partitionTierKey(t, wire, "domain", 4)
			blob := tier.EncodeAssignment(tc.a)
			put(ts.URL, key, blob)
			var resp PartitionResponse
			r := post(t, ts.URL+"/v1/partition", req, &resp)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("partition over the blob: status %d, want 200", r.StatusCode)
			}
			if got := normalizedBody(t, resp); got != want {
				t.Errorf("body differs from a tier-less server's\n got: %s\nwant: %s", got, want)
			}
			wantCache, wantCorrupt := CacheMiss, uint64(1)
			if tc.honest {
				wantCache, wantCorrupt = CacheTier, 0
			}
			if got := r.Header.Get("X-Samr-Cache"); got != wantCache {
				t.Errorf("X-Samr-Cache = %q, want %q", got, wantCache)
			}
			if got := srv.Tier().Stats().Corrupt; got != wantCorrupt {
				t.Errorf("tier.corrupt = %d, want %d", got, wantCorrupt)
			}
			if now, _ := srv.Tier().Disk().Get(key); !tc.honest && bytes.Equal(now, blob) {
				t.Error("the hostile blob is still the resident entry")
			}

			// As the mapping history of a session snapshot.
			sh, err := wideHierarchy(0).toGrid()
			if err != nil {
				t.Fatal(err)
			}
			postmap, err := ParsePartitioner("postmap(domain)")
			if err != nil {
				t.Fatal(err)
			}
			id := strings.Repeat("ab", 16)
			skey := sessionSnapshotKey(id)
			put(ts.URL, skey, tier.EncodeSessionSnapshot(&tier.SessionSnapshot{
				Name: postmap.Name(), NProcs: 4, Hierarchy: sh, Sig: sh.Signature(),
				Stateful: true, PrevHierarchy: h, PrevAssignment: tc.a,
			}))
			r = post(t, ts.URL+"/v1/session/"+id+"/step", finestStep(4), nil)
			var st StatsResponse
			getJSON(t, ts.URL+"/v1/stats", &st)
			if tc.honest {
				if r.StatusCode != http.StatusOK || st.Sessions.Resumed != 1 {
					t.Fatalf("resume from an honest snapshot: status %d, stats %+v", r.StatusCode, st.Sessions)
				}
				return
			}
			if r.StatusCode != http.StatusGone || errorCode(t, r) != CodeSessionExpired {
				t.Fatalf("resume over the blob: status %d, want the plain 410", r.StatusCode)
			}
			if st.Sessions.ResumeMisses != 1 || st.Sessions.Resumed != 0 || st.Tier.Corrupt != 2 {
				t.Errorf("after the refused resume: sessions %+v, tier.corrupt %d, want 1 resume miss and 2 corrupt", st.Sessions, st.Tier.Corrupt)
			}
			if diskHas(srv, skey) {
				t.Error("hostile snapshot not quarantined")
			}
		})
	}
}

// partitionTierKey is the fleet key of a /v1/partition request.
func partitionTierKey(t *testing.T, wire Hierarchy, spec string, nprocs int) string {
	t.Helper()
	h, err := wire.toGrid()
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParsePartitioner(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tierKeyOf(CacheKey{Sig: h.Signature(), Partitioner: p.Name(), NProcs: nprocs})
}

// fleetURLs lists the members' base URLs, the fleet's peer list.
func fleetURLs(fleet []*fleetMember) []string {
	urls := make([]string, len(fleet))
	for i, m := range fleet {
		urls[i] = m.url
	}
	return urls
}

// TestWipedMemberRefillsFromMisses pins, as counts, what a member that
// comes back empty costs with no repair mechanism at all: it recomputes
// exactly the keys it owns, is served every other key by that key's
// owner in one hop, answers all of them with the baseline body, and
// after one replay is warm — a second replay sends no peer GET and
// computes nothing. (The wipe is done in place, so no listener is
// re-bound: every disk entry deleted and the partition LRU flushed.)
func TestWipedMemberRefillsFromMisses(t *testing.T) {
	const nKeys, nprocs = 24, 4
	fleet := newFleet(t, 3)
	ring := tier.NewRing("", fleetURLs(fleet))
	wiped := fleet[2]

	// Every key is posted to the three members in rotation: the first
	// computes and shares it, the other two are tier-served and keep a
	// copy — the fleet-share benchmark's pattern.
	reqs := make([]PartitionRequest, nKeys)
	want := make([]string, nKeys)
	own := make([]bool, nKeys) // the wiped member is the key's ring owner
	owned := 0
	for i := range reqs {
		h := testHierarchy(i)
		reqs[i] = PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: nprocs}
		for j := 0; j < 3; j++ {
			var resp PartitionResponse
			if r := post(t, fleet[(i+j)%3].url+"/v1/partition", reqs[i], &resp); r.StatusCode != http.StatusOK {
				t.Fatalf("fill: key %d at member %d: status %d", i, (i+j)%3, r.StatusCode)
			}
			want[i] = normalizedBody(t, resp)
		}
		if own[i] = ring.Owner(partitionTierKey(t, h, "domain", nprocs)) == wiped.url; own[i] {
			owned++
		}
	}
	if owned == 0 || owned == nKeys {
		t.Fatalf("the wiped member owns %d of %d keys: the draw cannot tell a miss from a peer hit", owned, nKeys)
	}

	entries, err := filepath.Glob(filepath.Join(wiped.dir, "*.tier"))
	if err != nil || len(entries) != nKeys {
		t.Fatalf("wiped member's disk entries before the wipe: %d (err %v), want %d", len(entries), err, nKeys)
	}
	for _, e := range entries {
		wiped.srv.Tier().Disk().Delete(strings.TrimSuffix(filepath.Base(e), ".tier"))
	}
	wiped.srv.Cache().Flush()

	replay := func(pass int) map[string]int {
		disp := map[string]int{}
		for i, req := range reqs {
			var resp PartitionResponse
			r := post(t, wiped.url+"/v1/partition", req, &resp)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("replay %d: key %d: status %d", pass, i, r.StatusCode)
			}
			if got := normalizedBody(t, resp); got != want[i] {
				t.Errorf("replay %d: key %d: body differs from the baseline", pass, i)
			}
			got := r.Header.Get("X-Samr-Cache")
			disp[got]++
			if pass == 1 {
				wantDisp := CacheTier
				if own[i] {
					wantDisp = CacheMiss
				}
				if got != wantDisp {
					t.Errorf("replay 1: key %d: X-Samr-Cache = %q, want %q", i, got, wantDisp)
				}
			}
		}
		return disp
	}
	var before, after StatsResponse
	getJSON(t, wiped.url+"/v1/stats", &before)
	replay(1)
	getJSON(t, wiped.url+"/v1/stats", &after)
	if got := after.Cache.Misses - before.Cache.Misses; got != uint64(owned) {
		t.Errorf("replay 1 computed %d keys, want the %d the member owns", got, owned)
	}
	if got := after.Tier.PeerGets - before.Tier.PeerGets; got != uint64(nKeys-owned) {
		t.Errorf("replay 1 sent %d peer GETs, want one for each of the %d keys another member owns", got, nKeys-owned)
	}
	if after.Tier.DiskEntries != nKeys {
		t.Errorf("disk entries after replay 1 = %d, want all %d back", after.Tier.DiskEntries, nKeys)
	}

	before = after
	if disp := replay(2); disp[CacheHit] != nKeys {
		t.Errorf("replay 2 dispositions = %v, want %d hits", disp, nKeys)
	}
	getJSON(t, wiped.url+"/v1/stats", &after)
	if after.Tier.PeerGets != before.Tier.PeerGets || after.Cache.Misses != before.Cache.Misses {
		t.Errorf("replay 2 was not warm: peer GETs %d -> %d, computes %d -> %d",
			before.Tier.PeerGets, after.Tier.PeerGets, before.Cache.Misses, after.Cache.Misses)
	}
}

// TestFailoverSharesADeadOwnersKeys pins what breaker-fed failover buys:
// with one member down and its breaker open at both survivors, a key
// computed at one survivor is tier-served at the other — for every key,
// the dead member's included — and each of the dead member's keys costs
// the computing survivor one diverted read and one diverted store, the
// other survivor nothing. Without the stand-in the dead member's third
// of the keys is computed twice.
func TestFailoverSharesADeadOwnersKeys(t *testing.T) {
	const nKeys, nprocs = 24, 8
	fleet := newFleet(t, 3)
	ring := tier.NewRing("", fleetURLs(fleet))
	dead, survivors := fleet[2], fleet[:2]
	dead.ts.Close()
	http.DefaultClient.CloseIdleConnections()

	// Throwaway keys open the dead member's breaker at both survivors
	// (three consecutive failed exchanges each). Each key goes to one
	// survivor only: once the first breaker is open that survivor's
	// diverted stores would serve the other from its own disk, and the
	// other would never learn the owner is dead.
	open := func(m *fleetMember) bool {
		for _, b := range m.srv.Tier().Stats().Breakers {
			if b.Peer == dead.url && b.State == tier.BreakerOpen {
				return true
			}
		}
		return false
	}
	for i := 0; !open(survivors[0]) || !open(survivors[1]); i++ {
		if i == 100 {
			t.Fatal("100 throwaway keys did not open the dead member's breaker at both survivors")
		}
		h := testHierarchy(i % 25)
		req := PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 100 + i/25}
		if r := post(t, survivors[i%2].url+"/v1/partition", req, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("throwaway key %d: status %d", i, r.StatusCode)
		}
	}
	failovers := func() uint64 {
		n := uint64(0)
		for _, m := range survivors {
			st := m.srv.Tier().Stats()
			n += st.FailoverReads + st.FailoverStores
		}
		return n
	}
	before := failovers()

	deadOwned := 0
	for i := 0; i < nKeys; i++ {
		h := testHierarchy(i)
		req := PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: nprocs}
		if ring.Owner(partitionTierKey(t, h, "domain", nprocs)) == dead.url {
			deadOwned++
		}
		a, b := survivors[i%2], survivors[(i+1)%2]
		var respA, respB PartitionResponse
		if r := post(t, a.url+"/v1/partition", req, &respA); r.StatusCode != http.StatusOK || r.Header.Get("X-Samr-Cache") != CacheMiss {
			t.Fatalf("key %d at the computing survivor: status %d, X-Samr-Cache %q", i, r.StatusCode, r.Header.Get("X-Samr-Cache"))
		}
		r := post(t, b.url+"/v1/partition", req, &respB)
		if r.StatusCode != http.StatusOK || r.Header.Get("X-Samr-Cache") != CacheTier {
			t.Errorf("key %d at the other survivor: status %d, X-Samr-Cache %q, want tier", i, r.StatusCode, r.Header.Get("X-Samr-Cache"))
		}
		if normalizedBody(t, respA) != normalizedBody(t, respB) {
			t.Errorf("key %d: the survivors' bodies differ", i)
		}
	}
	if deadOwned == 0 {
		t.Fatalf("the dead member owns none of the %d keys: nothing was diverted", nKeys)
	}
	if got := failovers() - before; got != 2*uint64(deadOwned) {
		t.Errorf("failover_reads + failover_stores grew by %d, want 2 x the %d keys the dead member owns", got, deadOwned)
	}
}

// TestParentWrittenBlobsStillServe: the decoders gained bounds, not a
// layout. testdata/parent-b47e2fe holds two entries a samrd built from
// that commit wrote to its -tier-dir — a nature+fable result and the
// snapshot of a postmap(domain) session two steps in (token below) —
// and a daemon started over a copy of them serves both.
func TestParentWrittenBlobsStillServe(t *testing.T) {
	const token = "38a49e6efaf8c462dcfc2025aa267ade"
	dir := t.TempDir()
	entries, err := filepath.Glob("testdata/parent-b47e2fe/*.tier")
	if err != nil || len(entries) != 2 {
		t.Fatalf("parent-written entries: %v (err %v), want 2", entries, err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(e)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, ts := newTestServer(t, Config{TierDir: dir, TierSessions: true})
	if !diskHas(srv, sessionSnapshotKey(token)) {
		t.Fatal("the committed snapshot is not keyed by the token this test names")
	}

	h := testHierarchy(4)
	req := PartitionRequest{Hierarchy: &h, Partitioner: "nature+fable", NProcs: 4}
	if !diskHas(srv, partitionTierKey(t, h, req.Partitioner, req.NProcs)) {
		t.Fatal("the committed result is not keyed by the request this test posts")
	}
	_, plain := newTestServer(t, Config{})
	var want, got PartitionResponse
	post(t, plain.URL+"/v1/partition", req, &want)
	r := post(t, ts.URL+"/v1/partition", req, &got)
	if r.StatusCode != http.StatusOK || r.Header.Get("X-Samr-Cache") != CacheTier {
		t.Fatalf("partition over the parent-written blob: status %d, X-Samr-Cache %q, want a tier hit", r.StatusCode, r.Header.Get("X-Samr-Cache"))
	}
	if normalizedBody(t, got) != normalizedBody(t, want) {
		t.Error("the parent-written result differs from a fresh compute")
	}

	step := SessionStepRequest{Levels: []LevelOp{
		{Op: LevelKeep},
		{Op: LevelReplace, Boxes: []Box{{Dim: 2, Lo: []int{20, 8}, Hi: []int{36, 32}}}},
	}}
	r = post(t, ts.URL+"/v1/session/"+token+"/step", step, nil)
	if r.StatusCode != http.StatusOK || r.Header.Get(SessionResumedHeader) != "1" {
		t.Fatalf("step on the parent-written snapshot: status %d, resumed %q", r.StatusCode, r.Header.Get(SessionResumedHeader))
	}
	if st := srv.Tier().Stats(); st.Corrupt != 0 {
		t.Errorf("tier.corrupt = %d over parent-written blobs", st.Corrupt)
	}
}
