package server

import (
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"samr/internal/fault"
	"samr/internal/tier"
)

// The chaos suite: an in-process fleet driven through seeded fault
// schedules — corrupt resident blobs, injected disk-full, dropped peer
// exchanges, a member killed and later rejoining wiped — asserting the
// self-healing contract: zero client-visible errors, bodies
// byte-identical to a fault-free run, and a wiped member refilling from
// what it is asked for. Everything here is deterministic apart from
// which member owns which key (httptest ports feed the rendezvous
// hash), so assertions never depend on a particular ownership draw.

// chaosMember is one fleet daemon that can be killed and restarted on
// its original URL (listeners have SO_REUSEADDR, so re-binding the
// address works as soon as the old listener is closed).
type chaosMember struct {
	srv  *Server
	ts   *httptest.Server
	url  string
	addr string
	cfg  Config
	in   *fault.Injector
}

// chaosPlans is the suite's standing fault schedule: periodic resident
// blob corruption, periodic disk-full writes, periodic dropped peer
// fetches, and latency on peer offers.
func chaosPlans() []fault.Plan {
	return []fault.Plan{
		{Point: tier.FaultDiskGet, Mode: fault.Corrupt, Every: 5},
		{Point: tier.FaultDiskPut, Mode: fault.NoSpace, Every: 7},
		{Point: tier.FaultPeerGet, Mode: fault.Error, Every: 6},
		{Point: tier.FaultPeerPut, Mode: fault.Latency, Every: 4, Delay: 2 * time.Millisecond},
	}
}

// newChaosFleet is newFleet with a per-member seeded injector: member i
// runs the shared plan set from seed+i, so every run of the suite
// replays the identical fault schedule per member. A non-nil mutate
// hook adjusts each member's config before the server is built.
func newChaosFleet(t *testing.T, n int, seed int64, plans []fault.Plan, mutate func(*Config)) []*chaosMember {
	t.Helper()
	members := make([]*chaosMember, n)
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
		in, err := fault.New(seed+int64(i), plans...)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			TierDir:   t.TempDir(),
			TierPeers: urls,
			TierSelf:  urls[i],
			Faults:    in,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv)
		ts.Listener.Close() //nolint:errcheck
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(srv.Close)
		t.Cleanup(ts.Close)
		members[i] = &chaosMember{
			srv: srv, ts: ts, url: urls[i],
			addr: listeners[i].Addr().String(), cfg: cfg, in: in,
		}
	}
	return members
}

// kill stops the member's listener mid-flood, like a crashed daemon.
func (m *chaosMember) kill() {
	m.ts.Close()
	// Drop pooled keep-alive connections so later requests to surviving
	// members never ride a connection the dead one owned.
	http.DefaultClient.CloseIdleConnections()
}

// restart brings the member back on its original URL with cfg (the
// rejoin scenario passes a fresh TierDir: a wiped disk).
func (m *chaosMember) restart(t *testing.T, cfg Config) {
	t.Helper()
	m.ts.Close()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", m.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("re-binding %s: %v", m.addr, err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener.Close() //nolint:errcheck
	ts.Listener = ln
	ts.Start()
	t.Cleanup(srv.Close)
	t.Cleanup(ts.Close)
	m.srv, m.ts, m.cfg = srv, ts, cfg
	http.DefaultClient.CloseIdleConnections()
}

// TestChaosFleetServesBaselineBodiesUnderFaults is the headline chaos
// property: a fleet under the standing fault schedule — including one
// member killed mid-flood and rejoining wiped — answers every request
// with 200 and a body byte-identical to the fault-free baseline, and
// the rejoined member's disk store refills with the keys it is asked
// for.
func TestChaosFleetServesBaselineBodiesUnderFaults(t *testing.T) {
	const nHier = 24

	// The fault-free baseline fleet fixes the expected body per
	// hierarchy (tier members and a tier-less recompute already agree;
	// see TestFleetTierServesPeerComputedPartition).
	base := newFleet(t, 3)
	want := make([]string, nHier)
	for i := 0; i < nHier; i++ {
		req := PartitionRequest{Partitioner: "domain", NProcs: 4}
		h := testHierarchy(i)
		req.Hierarchy = &h
		var resp PartitionResponse
		if r := post(t, base[i%3].url+"/v1/partition", req, &resp); r.StatusCode != http.StatusOK {
			t.Fatalf("baseline hierarchy %d: status %d", i, r.StatusCode)
		}
		want[i] = normalizedBody(t, resp)
	}

	fleet := newChaosFleet(t, 3, 42, chaosPlans(), nil)
	check := func(pass int, m *chaosMember, hi int) {
		t.Helper()
		req := PartitionRequest{Partitioner: "domain", NProcs: 4}
		h := testHierarchy(hi)
		req.Hierarchy = &h
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
	}

	// Pass 1: the whole fleet serves under faults.
	for i := 0; i < nHier; i++ {
		check(1, fleet[i%3], i)
	}

	// Pass 2: member 2 is dead; the survivors absorb the flood (their
	// breakers for the dead member open along the way, diverting offers
	// and reads to the rendezvous stand-in).
	fleet[2].kill()
	for i := 0; i < nHier; i++ {
		check(2, fleet[i%2], i)
	}

	// Member 2 rejoins wiped: fresh disk, fresh seeded injector.
	cfg := fleet[2].cfg
	cfg.TierDir = t.TempDir()
	in2, err := fault.New(999, chaosPlans()...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = in2
	fleet[2].restart(t, cfg)
	fleet[2].in = in2

	// Pass 3: the whole fleet again, shifted so every member serves
	// hierarchies it has not answered before.
	for i := 0; i < nHier; i++ {
		check(3, fleet[(i+1)%3], i)
	}

	// The schedules actually fired on every member — the passes above
	// ran under live faults, not an idle injector.
	for i, m := range fleet {
		fired := uint64(0)
		for _, ps := range m.in.Stats() {
			fired += ps.Injected
		}
		if fired == 0 {
			t.Errorf("member %d: no fault ever fired; the chaos run was fault-free", i)
		}
	}

	// Pass 4: the rejoined member answers every hierarchy with the
	// baseline body, and what it was asked for is what refilled it: one
	// disk entry per key, less the writes its schedule refused.
	for i := 0; i < nHier; i++ {
		check(4, fleet[2], i)
	}
	refused := int(in2.Stats()[tier.FaultDiskPut].Injected)
	if got := fleet[2].srv.Tier().Stats().DiskEntries; got > nHier || got < nHier-refused {
		t.Errorf("rejoined member holds %d disk entries after being asked for %d keys with %d writes refused", got, nHier, refused)
	}
}

// takeoverPlans is the session-chaos schedule: latency on both session
// snapshot injection points and the peer offer path, plus periodic
// dropped peer fetches (the resume path on a non-owner rides peer
// GETs, so those drops are the ones that can surface as a recoverable
// 410).
func takeoverPlans() []fault.Plan {
	return []fault.Plan{
		{Point: FaultSnapshotPut, Mode: fault.Latency, Every: 2, Delay: time.Millisecond},
		{Point: FaultSnapshotGet, Mode: fault.Latency, Delay: time.Millisecond},
		{Point: tier.FaultPeerPut, Mode: fault.Latency, Every: 3, Delay: time.Millisecond},
		{Point: tier.FaultPeerGet, Mode: fault.Error, Every: 6},
	}
}

// TestChaosSessionTakeover is the tentpole chaos property: a streaming
// session whose owning daemon is killed mid-trajectory continues on a
// peer under the same token — resumed from the fleet-tier snapshot the
// owner wrote on its last committed step — with every step body
// byte-identical to an uninterrupted fault-free baseline. At most one
// recoverable 410 (an injected peer fetch drop on the resume path) is
// tolerated per takeover; everything else must be 200. Both the
// stateless and the stateful (carried postmap history) paths are
// driven.
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

			fleet := newChaosFleet(t, 3, 29, takeoverPlans(), func(cfg *Config) {
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
						// The one recoverable miss the contract allows: an
						// injected peer drop failed the snapshot fetch. No
						// state advanced, so the identical retry applies.
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
			// committed snapshot on local disk, immune to peer drops.
			resumed := false
			for i := preSteps + 1; i <= preSteps+postSteps; i++ {
				resumed = step(owner, i) || resumed
			}
			if !resumed {
				t.Error("no post-kill step was served off a resume")
			}
			// And a second takeover hop: the remaining member resumes via
			// a peer fetch from the ring owner (this is the path an
			// injected peer drop can turn into the one recoverable 410).
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

			// The schedules actually fired: the run was not fault-free.
			for i, m := range fleet {
				fired := uint64(0)
				for _, ps := range m.in.Stats() {
					fired += ps.Injected
				}
				if fired == 0 {
					t.Errorf("member %d: no fault ever fired; the takeover ran fault-free", i)
				}
			}
		})
	}
}

// TestChaosCorruptResidentBlobQuarantined pins the deterministic
// corrupt path: an always-corrupt disk read is rejected by the decoder,
// quarantined, recomputed, and invisible to the client.
func TestChaosCorruptResidentBlobQuarantined(t *testing.T) {
	dir := t.TempDir()
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(11)
	req.Hierarchy = &h

	// A fault-free daemon computes and persists the entry.
	_, ts1 := newTestServer(t, Config{TierDir: dir})
	var resp1 PartitionResponse
	post(t, ts1.URL+"/v1/partition", req, &resp1)

	// A restarted daemon (cold memory cache, same dir) reads every
	// resident blob damaged.
	in, err := fault.New(7, fault.Plan{Point: tier.FaultDiskGet, Mode: fault.Corrupt})
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{TierDir: dir, Faults: in})
	var resp2 PartitionResponse
	r := post(t, ts2.URL+"/v1/partition", req, &resp2)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status %d under corrupt reads", r.StatusCode)
	}
	if got, wantBody := normalizedBody(t, resp2), normalizedBody(t, resp1); got != wantBody {
		t.Error("recompute after quarantine differs from original body")
	}
	if st := srv2.Tier().Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
}

// TestChaosDiskFullDegradesToCompute pins the deterministic disk-full
// path: with every tier write failing ENOSPC, requests still succeed
// and the failure is visible only as store_errors.
func TestChaosDiskFullDegradesToCompute(t *testing.T) {
	in, err := fault.New(3, fault.Plan{Point: tier.FaultDiskPut, Mode: fault.NoSpace})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{TierDir: t.TempDir(), Faults: in})
	req := PartitionRequest{Partitioner: "domain", NProcs: 8}
	h := testHierarchy(13)
	req.Hierarchy = &h
	for i := 0; i < 2; i++ {
		if r := post(t, ts.URL+"/v1/partition", req, nil); r.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d under injected disk-full", i, r.StatusCode)
		}
	}
	st := srv.Tier().Stats()
	if st.StoreErrors == 0 {
		t.Error("injected disk-full never counted a store error")
	}
	if srv.Tier().Disk().Len() != 0 {
		t.Error("entry landed on a full disk")
	}
}
