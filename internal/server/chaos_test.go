package server

import (
	"encoding/binary"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"samr/internal/tier"
)

// The chaos suite: an in-process fleet broken from outside the program,
// through the handler in front of each member and the bytes on its
// disk — dropped and failed peer fetches, delayed offers, flipped
// bytes on the wire and on disk, a member killed and later rejoining
// wiped — asserting the self-healing contract: zero client-visible
// errors, bodies byte-identical to a fault-free run, and a wiped member
// refilling with the keys it computes and the keys it owns (a
// tier-served answer is kept in its LRU only). Faults follow per-member
// request counts, and the suites post sequentially (a computed result's
// store and peer offer finish before its response), so the same request
// sequence meets the same faults. Which member owns which key depends on
// the httptest ports that feed the rendezvous hash, so assertions never
// depend on a particular ownership draw.

// chaosSchedule says when a member's handler breaks its peer traffic:
// every failGet-th GET /v1/tier/ fails (a 500, or every other time a
// connection closed without an answer), every delayPut-th PUT
// /v1/tier/ is held 2 ms, and one byte of every flipBody-th 200 GET body
// is flipped. Zero turns a fault off.
type chaosSchedule struct {
	failGet, delayPut, flipBody uint64
}

// chaosMember is one fleet daemon behind a handler the test owns. The
// handler counts the member's peer-protocol requests and breaks them on
// its schedule; its dead switch drops every connection, like a crashed
// daemon; and start swaps a fresh Server in behind the same listener,
// so a restart never re-binds a port.
type chaosMember struct {
	url   string
	cfg   Config
	sched chaosSchedule
	srv   atomic.Pointer[Server]
	dead  atomic.Bool

	gets, puts, bodies       atomic.Uint64 // peer GETs, PUTs and 200 GET bodies seen
	failed, delayed, flipped atomic.Uint64 // faults injected
}

// newChaosFleet starts n daemons that know each other as tier peers,
// each behind a chaos handler on sched; a zero schedule breaks
// nothing. A non-nil mutate hook adjusts each member's config before
// its server is built.
func newChaosFleet(t *testing.T, n int, sched chaosSchedule, mutate func(*Config)) []*chaosMember {
	t.Helper()
	members := make([]*chaosMember, n)
	urls := make([]string, n)
	for i := range members {
		m := &chaosMember{sched: sched}
		ts := httptest.NewServer(m)
		t.Cleanup(ts.Close)
		m.url = ts.URL
		members[i], urls[i] = m, ts.URL
	}
	for i, m := range members {
		cfg := Config{TierDir: t.TempDir(), TierPeers: urls, TierSelf: urls[i]}
		if mutate != nil {
			mutate(&cfg)
		}
		m.start(t, cfg)
	}
	return members
}

// start runs a fresh daemon over cfg behind the member's listener; the
// rejoin scenario passes a fresh TierDir, a wiped disk.
func (m *chaosMember) start(t *testing.T, cfg Config) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.cfg = cfg
	m.srv.Store(srv)
	m.dead.Store(false)
}

// kill makes the member drop every connection, like a crashed daemon.
func (m *chaosMember) kill() { m.dead.Store(true) }

func (m *chaosMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.dead.Load() {
		hangUp(w)
		return
	}
	srv := m.srv.Load()
	if !strings.HasPrefix(r.URL.Path, "/v1/tier/") {
		srv.ServeHTTP(w, r)
		return
	}
	switch r.Method {
	case http.MethodPut:
		if nth(m.puts.Add(1), m.sched.delayPut) {
			m.delayed.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	case http.MethodGet:
		if n := m.gets.Add(1); nth(n, m.sched.failGet) {
			m.failed.Add(1)
			if n/m.sched.failGet%2 == 0 {
				hangUp(w)
			} else {
				http.Error(w, "injected failure", http.StatusInternalServerError)
			}
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && nth(m.bodies.Add(1), m.sched.flipBody) {
			m.flipped.Add(1)
			body[len(body)/2] ^= 0xFF
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(body) //nolint:errcheck
		return
	}
	srv.ServeHTTP(w, r)
}

// nth reports whether the n-th event is one an every-th schedule hits.
func nth(n, every uint64) bool { return every > 0 && n%every == 0 }

// hangUp closes the request's connection without an answer.
func hangUp(w http.ResponseWriter) {
	conn, _, err := http.NewResponseController(w).Hijack()
	if err != nil {
		panic(http.ErrAbortHandler) // closes the connection too
	}
	conn.Close() //nolint:errcheck
}

// rot flips the middle byte of each resident blob in the tier log under
// dir, in place — bit rot — and returns how many it damaged. It reads
// the log's framing: a record is the key as 64 hex bytes, the blob's
// length as a little-endian uint32, the blob and a CRC-32C; a key's
// later record supersedes its earlier ones, and a zero-length blob is a
// tombstone.
func rot(t *testing.T, dir string) int {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "tier.log"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	const keyLen, framed = 64, 64 + 4 + 4
	resident := map[string][2]int{} // key -> its blob's offset and length
	for off := 0; off+framed <= len(log); {
		key := string(log[off : off+keyLen])
		n := int(binary.LittleEndian.Uint32(log[off+keyLen:]))
		if off+framed+n > len(log) {
			break
		}
		if n == 0 {
			delete(resident, key)
		} else {
			resident[key] = [2]int{off + keyLen + 4, n}
		}
		off += framed + n
	}
	for _, blob := range resident {
		mid := blob[0] + blob[1]/2
		if _, err := f.WriteAt([]byte{log[mid] ^ 0xFF}, int64(mid)); err != nil {
			t.Fatal(err)
		}
	}
	return len(resident)
}

// TestChaosFleetServesBaselineBodiesUnderFaults is the headline chaos
// property: a fleet whose peer traffic fails, stalls and flips bytes on
// a schedule, with one member's disk rotted, one member killed
// mid-flood and rejoining wiped, answers every request with 200 and a
// body byte-identical to the fault-free baseline, and the rejoined
// member's disk store refills with exactly what it computes and what it
// owns: every entry is a key it owns or a key it answered as a miss, and
// every key it owns is on its disk once it has been asked for it.
func TestChaosFleetServesBaselineBodiesUnderFaults(t *testing.T) {
	const nHier = 24

	// The fault-free baseline fleet fixes the expected body per
	// hierarchy (tier members and a tier-less recompute already agree;
	// see TestFleetTierServesPeerComputedPartition).
	hiers := make([]Hierarchy, nHier, nHier+1)
	for i := range hiers {
		hiers[i] = testHierarchy(i)
	}
	keyOf := func(hi int) string {
		return partitionTierKey(t, hiers[hi], "domain", 4)
	}
	fleet := newChaosFleet(t, 3, chaosSchedule{failGet: 4, delayPut: 4, flipBody: 3}, nil)
	ring := tier.NewRing("", []string{fleet[0].url, fleet[1].url, fleet[2].url})
	// One more hierarchy, extra, whose key the ring gives member 2:
	// pass 2's lookup of it on a survivor that never answered it must
	// ask the dead member, whichever keys the ring draws for the rest.
	// testHierarchy's fine patch slides through x; lowering its y edge
	// gives four times as many distinct hierarchies to draw from.
	extra := nHier
	for j := 0; ; j++ {
		if j == 4*nHier {
			t.Fatal("member 2 owns none of the candidate hierarchies")
		}
		h := testHierarchy(j % nHier)
		h.Levels[1][0].Lo[1] = 6 - 2*(j/nHier)
		hiers = append(hiers[:extra], h)
		if ring.Owner(keyOf(extra)) == fleet[2].url {
			break
		}
	}

	// The fault-free baseline fleet fixes the expected body per
	// hierarchy (tier members and a tier-less recompute already agree;
	// see TestFleetTierServesPeerComputedPartition).
	base := newChaosFleet(t, 3, chaosSchedule{}, nil)
	want := make([]string, len(hiers))
	for i := range hiers {
		req := PartitionRequest{Partitioner: "domain", NProcs: 4}
		req.Hierarchy = &hiers[i]
		var resp PartitionResponse
		if r := post(t, base[i%3].url+"/v1/partition", req, &resp); r.StatusCode != http.StatusOK {
			t.Fatalf("baseline hierarchy %d: status %d", i, r.StatusCode)
		}
		want[i] = normalizedBody(t, resp)
	}

	// check posts hierarchy hi to m and returns the answer's disposition.
	check := func(pass int, m *chaosMember, hi int) string {
		t.Helper()
		req := PartitionRequest{Partitioner: "domain", NProcs: 4}
		req.Hierarchy = &hiers[hi]
		var resp PartitionResponse
		r := post(t, m.url+"/v1/partition", req, &resp)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("pass %d hierarchy %d on %s: status %d (faults must never be client-visible)",
				pass, hi, m.url, r.StatusCode)
		}
		if got := normalizedBody(t, resp); got != want[hi] {
			t.Fatalf("pass %d hierarchy %d on %s: body differs from fault-free baseline\n got: %s\nwant: %s",
				pass, hi, m.url, got, want[hi])
		}
		return r.Header.Get("X-Samr-Cache")
	}

	// Pass 1: the whole fleet serves under the peer faults; member 2
	// answers extra, so neither survivor holds it in its LRU.
	for i := 0; i < nHier; i++ {
		check(1, fleet[i%3], i)
	}
	check(1, fleet[2], extra)

	// Every entry on member 0's disk rots.
	if rot(t, fleet[0].cfg.TierDir) == 0 {
		t.Fatal("member 0 holds no disk entry to rot")
	}

	// Pass 2: member 2 is dead; the survivors absorb the flood (their
	// breakers for the dead member count its dropped connections,
	// diverting offers and reads to the rendezvous stand-in once open).
	fleet[2].kill()
	for i := 0; i < nHier; i++ {
		check(2, fleet[i%2], i)
	}
	check(2, fleet[0], extra)
	noticed := false
	for _, m := range fleet[:2] {
		for _, b := range m.srv.Load().Tier().Stats().Breakers {
			noticed = noticed || b.Peer == fleet[2].url
		}
	}
	if !noticed {
		t.Error("no survivor's breaker counts a failure against the dead member")
	}

	// Member 2 rejoins wiped: a fresh daemon over a fresh disk.
	corrupt := fleet[2].srv.Load().Tier().Stats().Corrupt
	cfg := fleet[2].cfg
	cfg.TierDir = t.TempDir()
	fleet[2].start(t, cfg)

	// Pass 3: the whole fleet again, shifted so every member serves
	// hierarchies it has not answered before. The rejoined member's
	// computed keys are recorded.
	rejoinedMiss := map[string]bool{}
	for i := 0; i < nHier; i++ {
		m := fleet[(i+1)%3]
		if check(3, m, i) == CacheMiss && m == fleet[2] {
			rejoinedMiss[keyOf(i)] = true
		}
	}

	// Pass 4: the rejoined member answers every hierarchy with the
	// baseline body. Its disk holds what it computed and what it owns,
	// and nothing it was served by a peer.
	for i := 0; i < nHier; i++ {
		if check(4, fleet[2], i) == CacheMiss {
			rejoinedMiss[keyOf(i)] = true
		}
	}
	candidates := make([]string, len(hiers))
	for i := range hiers {
		candidates[i] = keyOf(i)
	}
	held := heldKeys(t, fleet[2].srv.Load(), candidates)
	for k := range held {
		if ring.Owner(k) != fleet[2].url && !rejoinedMiss[k] {
			t.Errorf("rejoined member holds %s, a key it neither owns nor computed", k)
		}
	}
	owned := 0
	for i := 0; i < nHier; i++ {
		k := keyOf(i)
		if ring.Owner(k) != fleet[2].url {
			continue
		}
		owned++
		if !held[k] {
			t.Errorf("rejoined member was asked for hierarchy %d, which it owns, and holds no entry", i)
		}
	}
	for k := range rejoinedMiss {
		if !held[k] {
			t.Errorf("rejoined member computed %s and holds no entry", k)
		}
	}
	if got := fleet[2].srv.Load().Tier().Stats().DiskEntries; got != len(held) {
		t.Errorf("rejoined member's stats count %d disk entries, its log %d", got, len(held))
	}
	t.Logf("rejoined member holds %d disk entries: owns %d keys, computed %d", len(held), owned, len(rejoinedMiss))

	// The schedules fired — the passes above ran under live faults — and
	// the daemons noticed: every flipped body met a decoder that refused
	// it (rotted entries add to the count).
	var failed, delayed, flipped uint64
	for _, m := range fleet {
		failed += m.failed.Load()
		delayed += m.delayed.Load()
		flipped += m.flipped.Load()
		corrupt += m.srv.Load().Tier().Stats().Corrupt
	}
	t.Logf("%d failed GETs, %d delayed PUTs, %d flipped bodies, %d corrupt blobs refused", failed, delayed, flipped, corrupt)
	if failed == 0 || delayed == 0 || flipped == 0 {
		t.Errorf("faults injected: %d failed GETs, %d delayed PUTs, %d flipped bodies; want each > 0", failed, delayed, flipped)
	}
	if corrupt < flipped {
		t.Errorf("tier.corrupt across the fleet = %d, want at least the %d flipped bodies", corrupt, flipped)
	}
}

// TestChaosSessionTakeover is the tentpole chaos property: a streaming
// session whose owning daemon is killed mid-trajectory continues on a
// peer under the same token — resumed from the fleet-tier snapshot the
// owner wrote on its last committed step — with every step body
// byte-identical to an uninterrupted fault-free baseline, while the
// fleet's peer fetches fail and its offers (snapshots among them) stall
// on a schedule. At most one recoverable 410 (a failed peer fetch on
// the resume path) is tolerated per takeover; everything else must be
// 200. Both the stateless and the stateful (carried postmap history)
// paths are driven.
func TestChaosSessionTakeover(t *testing.T) {
	const preSteps, postSteps = 3, 3
	for _, spec := range []string{"domain", "postmap(domain)"} {
		t.Run(spec, func(t *testing.T) {
			// The uninterrupted baseline: one fault-free daemon runs the
			// whole trajectory in one session.
			_, baseTS := newTestServer(t, Config{})
			baseCreate := createSession(t, baseTS.URL, wideHierarchy(0), spec, 8)
			want := make([]string, preSteps+postSteps+2)
			for i := 1; i < len(want); i++ {
				var resp PartitionResponse
				r := post(t, baseTS.URL+"/v1/session/"+baseCreate.Session+"/step", finestStep(4*i), &resp)
				if r.StatusCode != http.StatusOK {
					t.Fatalf("baseline step %d: status %d", i, r.StatusCode)
				}
				want[i] = normalizedBody(t, resp)
			}

			fleet := newChaosFleet(t, 3, chaosSchedule{failGet: 2, delayPut: 3}, func(cfg *Config) {
				cfg.TierSessions = true
			})
			byURL := map[string]*chaosMember{}
			for _, m := range fleet {
				byURL[m.url] = m
			}

			// Create sessions on member 0 until the snapshot key's
			// rendezvous owner is a different member: each committed
			// step's offer then lands the snapshot on a daemon that
			// survives member 0's death. (A real client never does this —
			// it just retries the 410 — but the test needs the takeover
			// draw to be deterministic.)
			var id string
			var owner *chaosMember
			for try := 0; owner == nil; try++ {
				if try > 200 {
					t.Fatal("no session draw whose snapshot a peer owns")
				}
				create := createSession(t, fleet[0].url, wideHierarchy(0), spec, 8)
				own := tier.NewRing(fleet[0].url, fleet[0].cfg.TierPeers).Owner(sessionSnapshotKey(create.Session))
				if own != fleet[0].url {
					id, owner = create.Session, byURL[own]
				} else {
					del(t, fleet[0].url+"/v1/session/"+create.Session)
				}
			}
			var third *chaosMember
			for _, m := range fleet[1:] {
				if m != owner {
					third = m
				}
			}

			// step drives one delta at a member, tolerating at most one
			// recoverable 410 across the whole test (gone), and reports
			// whether the response was served off a resume.
			gone := 0
			step := func(m *chaosMember, i int) (resumed bool) {
				t.Helper()
				for attempt := 0; ; attempt++ {
					var resp PartitionResponse
					r := post(t, m.url+"/v1/session/"+id+"/step", finestStep(4*i), &resp)
					if r.StatusCode == http.StatusGone && gone == 0 && attempt == 0 {
						// The one recoverable miss the contract allows: a
						// failed peer fetch lost the snapshot. No state
						// advanced, so the identical retry applies.
						gone++
						continue
					}
					if r.StatusCode != http.StatusOK {
						t.Fatalf("step %d on %s: status %d (faults must never cost more than one recoverable 410)",
							i, m.url, r.StatusCode)
					}
					if got := normalizedBody(t, resp); got != want[i] {
						t.Fatalf("step %d on %s: body differs from uninterrupted baseline\n got: %s\nwant: %s",
							i, m.url, got, want[i])
					}
					if r.Header.Get(SessionHeader) != id {
						t.Fatalf("step %d on %s: session header %q", i, m.url, r.Header.Get(SessionHeader))
					}
					return r.Header.Get(SessionResumedHeader) == "1"
				}
			}

			// The owner-side trajectory, then the kill.
			for i := 1; i <= preSteps; i++ {
				if step(fleet[0], i) {
					t.Fatalf("step %d on the session's own daemon claimed a resume", i)
				}
			}
			fleet[0].kill()

			// Takeover: the snapshot key's ring owner holds the last
			// committed snapshot on local disk, immune to peer faults.
			resumed := false
			for i := preSteps + 1; i <= preSteps+postSteps; i++ {
				resumed = step(owner, i) || resumed
			}
			if !resumed {
				t.Error("no post-kill step was served off a resume")
			}
			// And a second takeover hop: the remaining member resumes via
			// a peer fetch from the ring owner (this is the path a failed
			// peer fetch can turn into the one recoverable 410).
			if !step(third, preSteps+postSteps+1) {
				t.Errorf("step on %s after the owner-side steps did not resume", third.url)
			}
			if gone > 1 {
				t.Errorf("%d recoverable 410s, want at most 1", gone)
			}

			// Resumes are accounted distinctly from creates.
			var st StatsResponse
			getJSON(t, owner.url+"/v1/stats", &st)
			if st.Sessions == nil || st.Sessions.Resumed < 1 || st.Sessions.Created != 0 {
				t.Errorf("owner session stats = %+v, want >=1 resumed and 0 created", st.Sessions)
			}

			// The schedule fired: the snapshot offers ran stalled.
			var failed, delayed uint64
			for _, m := range fleet {
				failed += m.failed.Load()
				delayed += m.delayed.Load()
			}
			t.Logf("%d failed GETs, %d delayed PUTs, %d recoverable 410s", failed, delayed, gone)
			if delayed == 0 {
				t.Error("no peer offer was ever delayed; the takeover ran fault-free")
			}
		})
	}
}

// TestChaosCorruptResidentBlobQuarantined pins the corrupt path: a
// byte of bit rot in the entry a key's owner holds is served over the
// peer protocol, refused by the fetching member's decoder, quarantined
// there and recomputed, invisibly to the client, and the recompute's
// offer replaces the rotted entry at the owner.
func TestChaosCorruptResidentBlobQuarantined(t *testing.T) {
	fleet := newChaosFleet(t, 3, chaosSchedule{}, nil)
	h := testHierarchy(11)
	req := PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 8}
	key := partitionTierKey(t, h, req.Partitioner, req.NProcs)
	ownerURL := tier.NewRing("", fleetURLs(fleet)).Owner(key)
	var owner *chaosMember
	var others []*chaosMember
	for _, m := range fleet {
		if m.url == ownerURL {
			owner = m
		} else {
			others = append(others, m)
		}
	}

	// A member that does not own the key computes it and offers it to
	// the owner, where it rots.
	var resp1 PartitionResponse
	post(t, others[0].url+"/v1/partition", req, &resp1)
	if rot(t, owner.cfg.TierDir) != 1 {
		t.Fatal("the owner does not hold exactly the offered entry")
	}

	// The third member is served the rotted bytes.
	var resp2 PartitionResponse
	r := post(t, others[1].url+"/v1/partition", req, &resp2)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d over a rotted peer entry", r.StatusCode)
	}
	if got := r.Header.Get("X-Samr-Cache"); got != CacheMiss {
		t.Errorf("X-Samr-Cache = %q, want miss (a corrupt blob is a miss)", got)
	}
	if got, wantBody := normalizedBody(t, resp2), normalizedBody(t, resp1); got != wantBody {
		t.Error("recompute after quarantine differs from original body")
	}
	if st := others[1].srv.Load().Tier().Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	for _, m := range []*chaosMember{others[1], owner} {
		if blob, ok := m.srv.Load().Tier().Disk().Get(key); !ok {
			t.Errorf("%s holds no entry after the recompute", m.url)
		} else if _, err := tier.DecodeAssignment(blob); err != nil {
			t.Errorf("%s still holds a corrupt entry: %v", m.url, err)
		}
	}
}

// TestChaosDiskFullDegradesToCompute pins the failed-disk path: with
// the tier directory replaced by a regular file, every tier write and
// read fails, yet requests still succeed and the failure is visible
// only as store_errors.
func TestChaosDiskFullDegradesToCompute(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{TierDir: dir})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(13)
	req.Hierarchy = &h
	for i := 0; i < 2; i++ {
		if r := post(t, ts.URL+"/v1/partition", req, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d on a failed disk", i, r.StatusCode)
		}
	}
	if srv.Tier().Stats().StoreErrors == 0 {
		t.Error("the failed disk never counted a store error")
	}
	if srv.Tier().Disk().Len() != 0 {
		t.Error("an entry landed on the failed disk")
	}
}
