package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"samr/internal/apps"
	"samr/internal/grid"
)

// BenchmarkSessionStepVsFullPost is the tentpole's closed-loop
// comparison: driving the same mostly-unchanged regrid trajectory (64
// static mid-level boxes, one moving finest patch) through repeated
// full /v1/partition posts versus one session advanced by per-level
// deltas. Each sub-benchmark runs against its own fresh server, so the
// cache behavior is identical on both sides; the reported reqB/op
// metric is the bytes a client uploads per step.
func BenchmarkSessionStepVsFullPost(b *testing.B) {
	newServer := func(b *testing.B) *httptest.Server {
		b.Helper()
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s)
		b.Cleanup(ts.Close)
		return ts
	}
	trajectoryX := func(i int) int { return (i % 24) * 8 }
	do := func(b *testing.B, url string, body []byte) {
		b.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	b.Run("full-post", func(b *testing.B) {
		ts := newServer(b)
		reqs := make([][]byte, 24)
		for i := range reqs {
			h := wideHierarchy(trajectoryX(i))
			body, err := json.Marshal(PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 8})
			if err != nil {
				b.Fatal(err)
			}
			reqs[i] = body
		}
		var sent int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := reqs[i%len(reqs)]
			do(b, ts.URL+"/v1/partition", body)
			sent += int64(len(body))
		}
		b.ReportMetric(float64(sent)/float64(b.N), "reqB/op")
	})

	b.Run("session-step", func(b *testing.B) {
		ts := newServer(b)
		base := wideHierarchy(trajectoryX(0))
		createBody, err := json.Marshal(SessionCreateRequest{Hierarchy: &base, Partitioner: "domain", NProcs: 8})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(createBody))
		if err != nil {
			b.Fatal(err)
		}
		var create SessionCreateResponse
		if err := json.NewDecoder(resp.Body).Decode(&create); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		stepURL := fmt.Sprintf("%s/v1/session/%s/step", ts.URL, create.Session)
		reqs := make([][]byte, 24)
		for i := range reqs {
			body, err := json.Marshal(finestStep(trajectoryX(i + 1)))
			if err != nil {
				b.Fatal(err)
			}
			reqs[i] = body
		}
		var sent int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := reqs[i%len(reqs)]
			do(b, stepURL, body)
			sent += int64(len(body))
		}
		b.ReportMetric(float64(sent)/float64(b.N), "reqB/op")
	})
}

// discardWriter is a ResponseWriter that keeps the status and headers
// and drops the body, as a socket would leave it to the client: a
// benchmark's B/op then counts the server's allocations only.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// BenchmarkSessionStepWarm is what regrid-sessions asks of the daemon,
// in process: per quick trace and per rung of a 3-rung nprocs ladder,
// one nature+fable session created on the trace's first distinct
// hierarchy and advanced by a delta step to each later one, through
// ServeHTTP. A pass before the timed loop fills the prep caches, and
// the result cache is smaller than a pass's distinct steps, so
// every step is a miss that computes, packs and inserts its answer, as
// in the workload. B/op over steps/op is the allocation of a warm step.
func BenchmarkSessionStepWarm(b *testing.B) {
	type session struct {
		create []byte
		steps  [][]byte
	}
	var sessions []session
	seen := map[string]bool{}
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			b.Fatal(err)
		}
		var hs []*grid.Hierarchy
		for _, snap := range tr.Snapshots {
			if sig := snap.H.Signature().String(); !seen[sig] {
				seen[sig] = true
				hs = append(hs, snap.H)
			}
		}
		for _, np := range []int{16, 20, 24} {
			first := FromHierarchy(hs[0])
			sess := session{create: []byte(mustMarshal(b, SessionCreateRequest{Hierarchy: &first, Partitioner: "nature+fable", NProcs: np}))}
			for i := 1; i < len(hs); i++ {
				prev, next := hs[i-1], hs[i]
				req := SessionStepRequest{Levels: make([]LevelOp, len(next.Levels))}
				wire := FromHierarchy(next)
				for l := range req.Levels {
					if l < len(prev.Levels) && slices.Equal(prev.Levels[l].Boxes, next.Levels[l].Boxes) {
						req.Levels[l] = LevelOp{Op: LevelKeep}
					} else {
						req.Levels[l] = LevelOp{Op: LevelReplace, Boxes: wire.Levels[l]}
					}
				}
				sess.steps = append(sess.steps, []byte(mustMarshal(b, req)))
			}
			sessions = append(sessions, sess)
		}
	}
	s, err := New(Config{CacheSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	serve := func(path string, body []byte) string {
		r, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		w := &discardWriter{header: http.Header{}}
		s.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			b.Fatalf("%s: status %d", path, w.code)
		}
		return w.header.Get(SessionHeader)
	}
	steps := 0
	run := func() {
		steps = 0
		for _, sess := range sessions {
			stepPath := "/v1/session/" + serve("/v1/session", sess.create) + "/step"
			for _, body := range sess.steps {
				serve(stepPath, body)
				steps++
			}
		}
	}
	run() // warms the prep caches
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
	if hits, _, _ := s.Cache().Stats(); hits != 0 {
		b.Fatalf("%d steps hit the result cache", hits)
	}
	b.ReportMetric(float64(steps), "steps/op")
}
