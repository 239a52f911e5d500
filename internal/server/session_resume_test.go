package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"samr/internal/tier"
)

// The fleet-resumable session suite (the ROADMAP's snapshot contract
// is asserted here): sessions written through the tier survive a
// daemon restart under the same token, corrupt or inconsistent
// snapshots decode as misses and are quarantined, deletes work across
// a failover, and with TierSessions off the entire observable surface
// — headers, stats body, and the unknown-token 410 — is byte-identical
// to a build without the resume layer.

// TestTierSessionsRequiresTier pins the config contract: the setting
// that depends on the fleet tier — durable sessions need somewhere
// durable to put them — fails fast without one instead of starting
// quietly disabled. So does a TierSelf the ring does not list — that
// member would own no key and fetch and offer its own keys over HTTP —
// and a negative RequestTimeout, which would read as "off".
func TestTierSessionsRequiresTier(t *testing.T) {
	peers := []string{"http://a:8347", "http://b:8347"}
	for name, cfg := range map[string]Config{
		"TierSessions without a tier":  {TierSessions: true},
		"TierSelf with a typo":         {TierDir: t.TempDir(), TierPeers: peers, TierSelf: "http://a:8348"},
		"TierSelf with another scheme": {TierDir: t.TempDir(), TierPeers: peers, TierSelf: "https://a:8347"},
		"TierPeers without TierSelf":   {TierDir: t.TempDir(), TierPeers: peers},
		"negative RequestTimeout":      {RequestTimeout: -5 * time.Second},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for name, cfg := range map[string]Config{
		"TierSelf in TierPeers":           {TierDir: t.TempDir(), TierPeers: peers, TierSelf: peers[1]},
		"TierSelf with a trailing slash":  {TierDir: t.TempDir(), TierPeers: peers, TierSelf: peers[1] + "/"},
		"TierPeers with a trailing slash": {TierDir: t.TempDir(), TierPeers: []string{peers[0] + "/", peers[1]}, TierSelf: peers[0]},
	} {
		if _, err := New(cfg); err != nil {
			t.Errorf("%s refused: %v", name, err)
		}
	}
}

// TestSessionResumeAcrossRestart is the headline resumability
// property, single-daemon form: a fresh server over the same tier
// directory — a crashed-and-restarted daemon, with an empty session
// table — continues a session under the old token, serving step bodies
// byte-identical to an uninterrupted run, for both the stateless and
// the stateful (carried postmap history) paths.
func TestSessionResumeAcrossRestart(t *testing.T) {
	for _, spec := range []string{"domain", "postmap(domain)"} {
		t.Run(spec, func(t *testing.T) {
			// The uninterrupted reference trajectory.
			_, baseTS := newTestServer(t, Config{})
			baseCreate := createSession(t, baseTS.URL, wideHierarchy(0), spec, 8)
			want := make([]string, 5)
			for i := 1; i < len(want); i++ {
				var resp PartitionResponse
				r := post(t, baseTS.URL+"/v1/session/"+baseCreate.Session+"/step", finestStep(4*i), &resp)
				if r.StatusCode != http.StatusOK {
					t.Fatalf("reference step %d: status %d", i, r.StatusCode)
				}
				want[i] = normalizedBody(t, resp)
			}

			dir := t.TempDir()
			_, ts1 := newTestServer(t, Config{TierDir: dir, TierSessions: true})
			create := createSession(t, ts1.URL, wideHierarchy(0), spec, 8)
			var snapshotSig string // the last committed state's, which the snapshot holds
			for i := 1; i <= 2; i++ {
				var resp PartitionResponse
				r := post(t, ts1.URL+"/v1/session/"+create.Session+"/step", finestStep(4*i), &resp)
				if r.StatusCode != http.StatusOK {
					t.Fatalf("pre-restart step %d: status %d", i, r.StatusCode)
				}
				if got := normalizedBody(t, resp); got != want[i] {
					t.Fatalf("pre-restart step %d: body differs from reference", i)
				}
				snapshotSig = resp.Results[0].Signature
			}
			ts1.Close()

			// The restarted daemon: same disk, empty session table. The
			// first step, the resume, is pinned to the snapshot's
			// signature, which the resumed session must hold.
			_, ts2 := newTestServer(t, Config{TierDir: dir, TierSessions: true})
			for i := 3; i <= 4; i++ {
				step := finestStep(4 * i)
				if i == 3 {
					step.Base = snapshotSig
				}
				var resp PartitionResponse
				r := post(t, ts2.URL+"/v1/session/"+create.Session+"/step", step, &resp)
				if r.StatusCode != http.StatusOK {
					raw, _ := io.ReadAll(r.Body)
					t.Fatalf("post-restart step %d: status %d\n%s", i, r.StatusCode, raw)
				}
				if got := normalizedBody(t, resp); got != want[i] {
					t.Fatalf("post-restart step %d: body differs from uninterrupted reference\n got: %s\nwant: %s", i, got, want[i])
				}
				// Only the first post-restart step is a resume; once the
				// session is back in the table it serves like any other.
				wantHdr := ""
				if i == 3 {
					wantHdr = "1"
				}
				if got := r.Header.Get(SessionResumedHeader); got != wantHdr {
					t.Errorf("post-restart step %d: %s = %q, want %q", i, SessionResumedHeader, got, wantHdr)
				}
			}

			// Resumes are accounted distinctly from creates.
			var st StatsResponse
			getJSON(t, ts2.URL+"/v1/stats", &st)
			if st.Sessions == nil || st.Sessions.Resumed != 1 || st.Sessions.Created != 0 ||
				st.Sessions.ResumeMisses != 0 || st.Sessions.Steps != 2 {
				t.Errorf("restarted daemon session stats = %+v, want 1 resumed / 0 created / 2 steps", st.Sessions)
			}
		})
	}
}

// TestSessionDeleteAfterFailover: a client deleting its session after
// a failover gets the same 204 the original owner would have answered,
// the local snapshot copy is dropped, and the token is gone for good.
func TestSessionDeleteAfterFailover(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{TierDir: dir, TierSessions: true})
	create := createSession(t, ts1.URL, wideHierarchy(0), "domain", 8)
	if r := post(t, ts1.URL+"/v1/session/"+create.Session+"/step", finestStep(4), nil); r.StatusCode != http.StatusOK {
		t.Fatalf("step: status %d", r.StatusCode)
	}
	ts1.Close()

	srv2, ts2 := newTestServer(t, Config{TierDir: dir, TierSessions: true})
	r := del(t, ts2.URL+"/v1/session/"+create.Session)
	if r.StatusCode != http.StatusNoContent {
		t.Fatalf("failover delete: status %d, want 204", r.StatusCode)
	}
	if r.Header.Get(SessionResumedHeader) != "1" {
		t.Errorf("failover delete did not mark the resume")
	}
	if diskHas(srv2, sessionSnapshotKey(create.Session)) {
		t.Error("delete left the local snapshot copy behind")
	}
	if r := del(t, ts2.URL+"/v1/session/"+create.Session); r.StatusCode != http.StatusGone {
		t.Fatalf("second delete: status %d, want 410", r.StatusCode)
	}
}

// TestSessionResumeCorruptSnapshotQuarantined pins the soft-state
// degradation: a byte-damaged snapshot decodes as a resume miss — the
// documented 410, counted as such — and is quarantined off disk so it
// is never fetched again.
func TestSessionResumeCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{TierDir: dir, TierSessions: true})
	create := createSession(t, ts1.URL, wideHierarchy(0), "domain", 8)
	if r := post(t, ts1.URL+"/v1/session/"+create.Session+"/step", finestStep(4), nil); r.StatusCode != http.StatusOK {
		t.Fatalf("step: status %d", r.StatusCode)
	}
	ts1.Close()

	srv2, ts2 := newTestServer(t, Config{TierDir: dir, TierSessions: true})
	key := sessionSnapshotKey(create.Session)
	blob, ok := srv2.Tier().Disk().Get(key)
	if !ok {
		t.Fatal("no snapshot on disk after a committed step")
	}
	blob[len(blob)/2] ^= 0xFF
	if err := srv2.Tier().Disk().Put(key, blob); err != nil {
		t.Fatal(err)
	}

	r := post(t, ts2.URL+"/v1/session/"+create.Session+"/step", finestStep(8), nil)
	if r.StatusCode != http.StatusGone || errorCode(t, r) != CodeSessionExpired {
		t.Fatalf("resume from damaged snapshot: status %d, want the plain 410", r.StatusCode)
	}
	if diskHas(srv2, key) {
		t.Error("damaged snapshot not quarantined")
	}
	var st StatsResponse
	getJSON(t, ts2.URL+"/v1/stats", &st)
	if st.Sessions == nil || st.Sessions.ResumeMisses != 1 || st.Sessions.Resumed != 0 {
		t.Errorf("session stats = %+v, want 1 resume miss and 0 resumed", st.Sessions)
	}
}

// TestSessionResumeInconsistentSnapshotQuarantined covers the semantic
// gate behind the envelope: a snapshot that decodes cleanly but fails a
// create-path check — its recorded signature is not what its own
// geometry hashes to (a stale or tampered write) — resumes nothing and
// is quarantined like byte damage. (TestVolumetricRequests holds the
// same for a snapshot whose hierarchy is not 2-D.)
func TestSessionResumeInconsistentSnapshotQuarantined(t *testing.T) {
	srv, ts := newTestServer(t, Config{TierDir: t.TempDir(), TierSessions: true})

	wireA, wireB := wideHierarchy(0), wideHierarchy(16)
	ha, err := wireA.toGrid()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := wireB.toGrid()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParsePartitioner("domain")
	if err != nil {
		t.Fatal(err)
	}
	id := strings.Repeat("ab", 16)
	key := sessionSnapshotKey(id)
	for name, ss := range map[string]*tier.SessionSnapshot{
		// One geometry's signature around another geometry.
		"stale signature": {Name: spec.Name(), NProcs: 8, Hierarchy: hb, Sig: ha.Signature()},
	} {
		if err := srv.Tier().Disk().Put(key, tier.EncodeSessionSnapshot(ss)); err != nil {
			t.Fatal(err)
		}
		r := post(t, ts.URL+"/v1/session/"+id+"/step", finestStep(8), nil)
		if r.StatusCode != http.StatusGone {
			t.Fatalf("%s: resume status %d, want 410", name, r.StatusCode)
		}
		if diskHas(srv, key) {
			t.Errorf("%s: snapshot not quarantined", name)
		}
	}

	// The rejection really is the signature cross-check: the same
	// snapshot with a self-consistent pair resumes.
	if err := srv.Tier().Disk().Put(key, tier.EncodeSessionSnapshot(&tier.SessionSnapshot{
		Name: spec.Name(), NProcs: 8, Hierarchy: hb, Sig: hb.Signature(),
	})); err != nil {
		t.Fatal(err)
	}
	r := post(t, ts.URL+"/v1/session/"+id+"/step", finestStep(8), nil)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("resume from consistent snapshot: status %d", r.StatusCode)
	}
	if r.Header.Get(SessionResumedHeader) != "1" {
		t.Error("consistent snapshot resume not marked")
	}
}
