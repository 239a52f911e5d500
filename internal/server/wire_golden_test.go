package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// The wire fixtures pin the daemon's whole observable surface once per
// feature set: one fixed request script is served through
// Server.ServeHTTP, and its transcript — each request, the status, the
// sorted headers and the body — must equal testdata/wire/<set>.txt byte
// for byte. The default set's fixture holds no header, route or stats
// block of an optional feature, so a feature that is off cannot reach
// the wire unnoticed. There is no update flag: on a mismatch the test
// prints the transcript it got, and the fixture is edited by hand.

// wireSets are the feature sets the script runs under. A tier set gets
// a fresh TierDir and no peers, so no port reaches the ring.
var wireSets = []struct {
	name string
	cfg  Config
	tier bool
}{
	{"default", Config{}, false},
	{"admission", Config{MaxInFlight: 2}, false},
	{"tier", Config{}, true},
	{"tier-sessions", Config{TierSessions: true}, true},
}

// wireMasks blank what a transcript may not pin, each for the reason
// given; everything else is compared as served.
var wireMasks = []struct {
	re   *regexp.Regexp
	repl string
}{
	// pool.Workers() follows GOMAXPROCS.
	{regexp.MustCompile(`"pool_size":\d+`), `"pool_size":"MASKED"`},
	// A smoothed wall-clock service time.
	{regexp.MustCompile(`"service_ewma_nanos":\d+`), `"service_ewma_nanos":"MASKED"`},
	// Package-level caches shared by every test in the binary, so their
	// counters depend on which tests ran first.
	{regexp.MustCompile(`"unit_chains":\{[^}]*\}`), `"unit_chains":"MASKED"`},
	{regexp.MustCompile(`"sim_memo":\{[^}]*\}`), `"sim_memo":"MASKED"`},
}

func TestWireFixtures(t *testing.T) {
	for _, set := range wireSets {
		t.Run(set.name, func(t *testing.T) {
			cfg := set.cfg
			if set.tier {
				cfg.TierDir = t.TempDir()
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := wireTranscript(t, srv)
			want, err := os.ReadFile(filepath.Join("testdata", "wire", set.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("transcript differs from testdata/wire/%s.txt; got:\n%s", set.name, got)
			}
		})
	}
}

// wireTranscript serves the script to srv and returns its transcript,
// masked.
func wireTranscript(t *testing.T, srv *Server) string {
	srv.Registry().Register("synth", testTrace(4))
	var out strings.Builder
	do := func(method, path string, req any) *httptest.ResponseRecorder {
		t.Helper()
		var body []byte
		if req != nil {
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		rec := serve(srv, method, path, string(body))
		fmt.Fprintf(&out, "> %s %s\n", method, path)
		if body != nil {
			fmt.Fprintf(&out, "> %s\n", body)
		}
		fmt.Fprintf(&out, "< %d\n", rec.Code)
		for _, k := range slices.Sorted(maps.Keys(rec.Header())) {
			for _, v := range rec.Header()[k] {
				fmt.Fprintf(&out, "< %s: %s\n", k, v)
			}
		}
		out.WriteString(printable(rec.Body.Bytes()))
		out.WriteString("\n")
		return rec
	}

	h0, h1, h2 := testHierarchy(0), testHierarchy(1), testHierarchy(2)
	do(http.MethodGet, "/healthz", nil)
	do(http.MethodGet, "/readyz", nil)
	do(http.MethodGet, "/v1/stats", nil)
	do(http.MethodPost, "/v1/select", SelectRequest{Hierarchies: []Hierarchy{h0, h1, h2}})
	do(http.MethodPost, "/v1/partition", PartitionRequest{Hierarchy: &h1, Partitioner: "domain", NProcs: 8})
	do(http.MethodPost, "/v1/partition", PartitionRequest{Hierarchies: []Hierarchy{h1}, Partitioner: "domain", NProcs: 8})
	do(http.MethodPost, "/v1/simulate", SimulateRequest{Trace: "synth", Partitioner: "domain", NProcs: 4})
	do(http.MethodPost, "/v1/select", SelectRequest{Hierarchy: &h0, NProcs: -1})

	token := do(http.MethodPost, "/v1/session", SessionCreateRequest{Hierarchy: &h1, Partitioner: "domain", NProcs: 8}).Header().Get(SessionHeader)
	if token == "" {
		t.Fatal("session create answered no token")
	}
	step := SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelReplace, Boxes: h2.Levels[1]}}}
	do(http.MethodPost, "/v1/session/"+token+"/step", step)
	step.Base = strings.Repeat("0", 64)
	do(http.MethodPost, "/v1/session/"+token+"/step", step)
	do(http.MethodDelete, "/v1/session/"+token, nil)
	step.Base = ""
	do(http.MethodPost, "/v1/session/"+token+"/step", step)

	do(http.MethodGet, "/v1/tier/"+partitionTierKey(t, h1, "domain", 8), nil)
	do(http.MethodGet, "/v1/tier/manifest", nil)
	do(http.MethodGet, "/v1/stats", nil)

	// A session token is random.
	s := strings.ReplaceAll(out.String(), token, "TOKEN")
	for _, m := range wireMasks {
		s = m.re.ReplaceAllString(s, m.repl)
	}
	return s
}

// printable is a response body as the transcript shows it: text as
// served, anything else as a hex dump.
func printable(b []byte) string {
	if utf8.Valid(b) && !bytes.ContainsFunc(b, func(r rune) bool { return r < ' ' && r != '\n' }) {
		return string(b)
	}
	return hex.Dump(b)
}
