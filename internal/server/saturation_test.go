package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The saturation suite is the graceful-degradation acceptance test: it
// drives offered load well past capacity and checks that the service
// bends instead of breaking — excess requests are shed with the
// documented 429 + Retry-After wire error before any partitioner runs
// (the gating tests), and, on the clock, sheds are fast, interactive
// latency stays within a fixed bound and goodput (successes inside the
// client deadline) never collapses below the no-admission baseline
// (BenchmarkAdmissionSaturation, which only the non-gating job runs).
//
// Compute cost is made hardware-independent by injecting a calibrated
// CPU-bound spin into every partition compute through the cache's
// SetOnFlight hook, and every request uses a unique cache key so each
// one really computes. All load/latency parameters are expressed in
// multiples of the calibrated solo service time, so the same contrast
// (offered load ≫ capacity) holds on any runner, race detector
// included.

// spinSink defeats dead-code elimination of the calibrated spin.
var spinSink atomic.Uint64

func spinIters(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*2862933555777941757 + 3037000493
	}
	spinSink.Store(x)
}

// spinWork burns n iterations in chunks, yielding the processor
// between chunks. Real partitioner work is full of preemption points;
// an unyielding spin on a single-P runtime would serialize the whole
// server (connection goroutines never reach admission concurrently),
// which is the opposite of the overload this suite must create.
func spinWork(n int) {
	chunk := n/16 + 1
	for done := 0; done < n; done += chunk {
		spinIters(min(chunk, n-done))
		runtime.Gosched()
	}
}

// calibrateSpin returns an iteration count whose uncontended runtime
// is approximately target.
func calibrateSpin(target time.Duration) int {
	n := 1 << 14
	for {
		start := time.Now()
		spinIters(n)
		el := time.Since(start)
		if el >= target/4 {
			scaled := int(float64(n) * float64(target) / float64(el))
			if scaled < 1 {
				scaled = 1
			}
			return scaled
		}
		n *= 2
	}
}

// floodResult aggregates one offered-load run.
type floodResult struct {
	duration    time.Duration
	successes   int
	sheds       int
	timeouts    int
	failures    int
	successLat  []time.Duration
	shedLat     []time.Duration
	shedBadWire int // sheds missing Retry-After >= 1s or the reason header
}

func (f floodResult) goodput() float64 {
	return float64(f.successes) / f.duration.Seconds()
}

// pct returns the q-quantile (0 < q < 1) of lat; lat is sorted in
// place.
func pct(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[int(float64(len(lat))*q)]
}

// uniqueKey hands every flood request a distinct (hierarchy, nprocs)
// pair so each admitted request is a fresh compute leader (no cache
// hits shortcutting the load model).
var uniqueKey atomic.Int64

func uniqueRequest() PartitionRequest {
	k := uniqueKey.Add(1)
	h := testHierarchy(int(k % 8))
	return PartitionRequest{Hierarchy: &h, Partitioner: "domain-hilbert-u2", NProcs: 2 + int(k/8%800)}
}

// runFlood hammers /v1/partition from `workers` closed-loop clients for
// `duration`, each request carrying a client-side deadline of
// `timeout`. Shed workers pause `shedPause` before retrying (a
// minimal client courtesy, far cruder than honoring Retry-After).
func runFlood(tb testing.TB, url string, workers int, duration, timeout, shedPause time.Duration) floodResult {
	tb.Helper()
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        2 * workers,
			MaxIdleConnsPerHost: 2 * workers,
		},
	}
	defer client.CloseIdleConnections()

	var mu sync.Mutex
	var res floodResult
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				body, err := json.Marshal(uniqueRequest())
				if err != nil {
					tb.Error(err)
					return
				}
				start := time.Now()
				r, err := client.Post(url+"/v1/partition", "application/json", bytes.NewReader(body))
				lat := time.Since(start)
				if err != nil {
					mu.Lock()
					var ne net.Error
					if errors.As(err, &ne) && ne.Timeout() {
						res.timeouts++
					} else {
						res.failures++
					}
					mu.Unlock()
					continue
				}
				switch r.StatusCode {
				case http.StatusOK:
					mu.Lock()
					res.successes++
					res.successLat = append(res.successLat, lat)
					mu.Unlock()
				case http.StatusTooManyRequests:
					secs, aerr := strconv.Atoi(r.Header.Get("Retry-After"))
					bad := aerr != nil || secs < 1 || r.Header.Get(ShedHeader) == ""
					mu.Lock()
					res.sheds++
					res.shedLat = append(res.shedLat, lat)
					if bad {
						res.shedBadWire++
					}
					mu.Unlock()
				default:
					mu.Lock()
					res.failures++
					mu.Unlock()
				}
				r.Body.Close()
				if r.StatusCode == http.StatusTooManyRequests {
					time.Sleep(shedPause)
				}
			}
		}()
	}
	wg.Wait()
	res.duration = duration
	return res
}

// saturationServer builds a server whose per-request compute is the
// calibrated spin (injected via the compute-leader hook), admission
// per maxInFlight (0 = disabled), with the server's four queue places
// per slot.
func saturationServer(tb testing.TB, spin int, maxInFlight int) (*Server, *httptest.Server) {
	tb.Helper()
	s, err := New(Config{MaxInFlight: maxInFlight})
	if err != nil {
		tb.Fatal(err)
	}
	s.Cache().SetOnFlight(func(k CacheKey, leader bool) {
		if leader {
			spinWork(spin)
		}
	})
	ts := httptest.NewServer(s)
	tb.Cleanup(ts.Close)
	return s, ts
}

// overloadFlood is the acceptance flood: offered load ~32x the in-flight
// cap (well past the required 2–4x) from closed-loop clients whose
// deadline is 20x the solo service time.
func overloadFlood(tb testing.TB, solo, duration time.Duration, admission bool) (*Server, floodResult) {
	cores := runtime.GOMAXPROCS(0)
	maxInFlight := 0
	if admission {
		maxInFlight = cores // capacity-matched in-flight cap
	}
	srv, ts := saturationServer(tb, calibrateSpin(solo), maxInFlight)
	return srv, runFlood(tb, ts.URL, 32*cores, duration, 20*solo, solo/2)
}

// TestGracefulDegradationUnderOverload is the gating half of the
// acceptance test, the half no clock can fail: under the flood excess
// requests are shed, every shed carries the full wire contract, no shed
// ever ran a partitioner, and the controller drains to zero. What the
// flood costs in latency and goodput is BenchmarkAdmissionSaturation's.
func TestGracefulDegradationUnderOverload(t *testing.T) {
	srv, adm := overloadFlood(t, 5*time.Millisecond, 500*time.Millisecond, true)
	t.Logf("admission: %d ok, %d shed, %d timeouts", adm.successes, adm.sheds, adm.timeouts)
	if adm.failures > 0 {
		t.Fatalf("%d requests answered neither 200 nor 429", adm.failures)
	}
	// The queue cannot absorb 32x the cap.
	if adm.sheds == 0 {
		t.Fatal("overload produced no sheds; the test did not reach saturation")
	}
	// Every shed carried the full wire contract (429 checked by
	// classification; Retry-After >= 1s and the reason header here).
	if adm.shedBadWire != 0 {
		t.Errorf("%d of %d sheds missing Retry-After >= 1 or %s", adm.shedBadWire, adm.sheds, ShedHeader)
	}
	// A request its client gave up on releases its slot when its
	// handler notices, not when the client returns.
	st := srv.Admission().Stats()
	for end := time.Now().Add(10 * time.Second); (st.InFlight != 0 || st.Queued != 0) && time.Now().Before(end); st = srv.Admission().Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.ShedTotal() == 0 || st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("admission stats inconsistent after drain: %+v", st)
	}
	// A shed request never ran a partitioner: executions (cache misses)
	// cannot exceed the requests that were actually admitted.
	if _, misses, _ := srv.Cache().Stats(); misses > st.Admitted {
		t.Errorf("partitioner executions %d > admitted %d: shed requests computed", misses, st.Admitted)
	}
}

// TestSaturationRampShedMonotonicity is the CI smoke variant: a short
// offered-load ramp against a tiny capacity, asserting the shed
// counter is monotone non-decreasing across stages and that the top of
// the ramp actually sheds.
func TestSaturationRampShedMonotonicity(t *testing.T) {
	const solo = 3 * time.Millisecond
	spin := calibrateSpin(solo)
	srv, ts := saturationServer(t, spin, 1)

	cores := runtime.GOMAXPROCS(0)
	var last uint64
	for stage, workers := range []int{2 * cores, 8 * cores, 24 * cores} {
		runFlood(t, ts.URL, workers, 250*time.Millisecond, 10*solo, solo)
		shed := srv.Admission().Stats().ShedTotal()
		if shed < last {
			t.Fatalf("stage %d: shed counter went backwards (%d -> %d)", stage, last, shed)
		}
		t.Logf("stage %d (%d workers): shed total %d", stage, workers, shed)
		last = shed
	}
	if last == 0 {
		t.Fatal("ramp completed without shedding; capacity 1 under 24x load must shed")
	}
}

// BenchmarkAdmissionSaturation is the timed half of the acceptance
// test, run by the non-gating saturation job only: it reports the
// saturation profile (goodput, interactive p99, shed rate) and fails
// when the service breaks instead of bending — sheds that are not fast,
// interactive latency past a fixed multiple of the solo service time,
// or goodput below what the same flood gets with admission off, where
// it oversubscribes the CPU until ~every request blows the client
// deadline. Headline bounds are p90: in-process floods on a busy runner
// measure client-goroutine scheduling delay on top of response time.
func BenchmarkAdmissionSaturation(b *testing.B) {
	const solo = 5 * time.Millisecond
	for i := 0; i < b.N; i++ {
		_, adm := overloadFlood(b, solo, 1500*time.Millisecond, true)
		_, base := overloadFlood(b, solo, 1500*time.Millisecond, false)
		b.ReportMetric(adm.goodput(), "goodput/s")
		b.ReportMetric(base.goodput(), "baseline-goodput/s")
		b.ReportMetric(float64(pct(adm.successLat, 0.99).Nanoseconds()), "p99-ns")
		b.ReportMetric(float64(adm.sheds)/adm.duration.Seconds(), "sheds/s")

		for _, c := range []struct {
			what  string
			lat   []time.Duration
			q     float64
			bound time.Duration
		}{
			// Sheds do no compute: well below what an admitted request pays.
			{"shed p90", adm.shedLat, 0.9, 8 * solo},
			{"shed p99", adm.shedLat, 0.99, 20 * solo},
			// The client deadline is 20x solo; p90 leaves headroom under it.
			{"interactive p90", adm.successLat, 0.9, 14 * solo},
			{"interactive p99", adm.successLat, 0.99, 24 * solo},
		} {
			if got := pct(c.lat, c.q); got > c.bound {
				b.Errorf("%s = %v, want <= %v under overload", c.what, got, c.bound)
			}
		}
		if adm.successes < 20 {
			b.Errorf("only %d successes under admission; expected sustained goodput", adm.successes)
		}
		if adm.goodput() < base.goodput() {
			b.Errorf("goodput with admission %.0f/s fell below the no-admission baseline %.0f/s", adm.goodput(), base.goodput())
		}
	}
}
