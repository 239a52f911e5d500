package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the test binary serve as its own child process, the way
// the benchmark binary does.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		if err := childMain(mode, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestPercentileMedianQuartile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {99, 10}, {90, 9}, {25, 3}, {75, 8}, {1, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(1,2,3) = %g, want 2", got)
	}
	if lo, hi := quartile(xs, false), quartile(xs, true); lo != 3 || hi != 8 {
		t.Errorf("quartiles of 1..10 = %g, %g, want 3, 8", lo, hi)
	}
	if got := quartile([]float64{7, 5, 6}, false); got != 5 {
		t.Errorf("first quartile of three values = %g, want the smallest", got)
	}
	if lo, hi := minMax(xs); lo != 1 || hi != 10 {
		t.Errorf("minMax = %g, %g", lo, hi)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "decode", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 1, Name: "compute", Start: 30, End: 80},
		{ID: 4, Parent: 3, Req: 1, Name: "cut", Start: 40, End: 60},
		{ID: 5, Parent: 1, Req: 1, Name: "overlap", Start: 70, End: 90}, // overlaps compute by 10
		{ID: 6, Req: 6, Name: "request", Start: 200, End: 250},
	}
	want := map[int64]int64{1: 100 - 20 - 50 - 10, 2: 20, 3: 30, 4: 20, 5: 20, 6: 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if got := byName["request"]; !reflect.DeepEqual(got, []float64{0.02, 0.05}) {
		t.Errorf("request self times = %v us, want [0.02 0.05]", got)
	}
}

func TestRecorderSharesRequestID(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(0, "request")
	rec.end(rec.begin(root, "stage"))
	rec.end(root)
	other := rec.begin(0, "request")
	rec.end(other)
	rec.adopt([]span{{ID: 1, Req: 1, Name: "child-root"}, {ID: 2, Parent: 1, Req: 1, Name: "child-stage"}})
	got := rec.spans
	if got[1].Req != got[0].ID || got[1].Parent != got[0].ID || got[2].Req != got[2].ID {
		t.Errorf("spans of one request do not share its root id: %+v", got[:3])
	}
	if got[3].ID != 4 || got[4].Parent != 4 || got[4].Req != 4 {
		t.Errorf("adopted spans not renumbered after the recorder's own: %+v", got[3:])
	}
}

func quickStates(t *testing.T) [][]*state {
	t.Helper()
	traces, err := generateTraces(context.Background(), quickScale)
	if err != nil {
		t.Fatal(err)
	}
	return statesOf(traces)
}

func TestScheduleFollowsSeed(t *testing.T) {
	states := quickStates(t)
	for _, w := range serviceWorkloads {
		a := w.build(states, newRNG(7), 400)
		b := w.build(states, newRNG(7), 400)
		c := w.build(states, newRNG(8), 400)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, different schedules", w.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds, same schedule", w.name)
		}
		if len(a.run) != len(c.run) || len(a.warm) != len(c.warm) {
			t.Errorf("%s: the seed changed how many requests there are (%d+%d vs %d+%d)", w.name, len(a.warm), len(a.run), len(c.warm), len(c.run))
		}
	}
}

// The workloads' definitions rest on these properties of their
// schedules; the daemon's answers are checked against them at run time.
func TestScheduleShapes(t *testing.T) {
	states := quickStates(t)
	type key struct {
		sig    string
		nprocs int
	}
	// An LRU of capacity C misses a key exactly when at least C other
	// keys were asked for since it was last asked for.
	regrid := regridSchedule(states, newRNG(1), 2000)
	last := map[key]int{}
	steps := 0
	for _, o := range regrid.run {
		if o.Kind != opStep {
			continue
		}
		k := key{o.St.Sig, o.NProcs}
		if at, seen := last[k]; seen && steps-at-1 < cacheSize {
			t.Fatalf("regrid-sessions: a key comes back after %d other keys; the result cache holds %d, so it would hit", steps-at-1, cacheSize)
		}
		last[k] = steps
		steps++
	}
	if steps == len(last) {
		t.Errorf("regrid-sessions: %d steps never repeat a key: the test needs more than one cycle", steps)
	}

	repeat := repeatSchedule(states, newRNG(1), 1000)
	if len(repeat.warm) > cacheSize || len(repeat.warm) < cacheSize/2 {
		t.Errorf("repeat-posts: hot set of %d keys does not fill, or does not fit, a cache of %d", len(repeat.warm), cacheSize)
	}
	if len(repeat.run)%len(repeat.warm) != 0 {
		t.Errorf("repeat-posts: %d posts are not whole rounds over %d keys", len(repeat.run), len(repeat.warm))
	}

	fleet := fleetSchedule(states, newRNG(1), 300)
	for i, o := range fleet.run {
		first := i%fleetMembers == 0
		if (o.Want == "miss") != first || o.Timed == first || o.Member != (i/fleetMembers+i%fleetMembers)%fleetMembers {
			t.Fatalf("fleet-share: post %d: want %q timed %v member %d", i, o.Want, o.Timed, o.Member)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	v := func(value, lo, hi float64) metricValue { return metricValue{Value: value, Min: lo, Max: hi} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metricValue
		want string
	}{
		{"within the bound", lower, v(10, 9, 11), v(10.5, 10, 11), verdictOK},
		{"slower, ranges apart", lower, v(10, 9, 11), v(13, 12, 14), verdictRegressed},
		{"slower, ranges overlap", lower, v(10, 9, 12.5), v(13, 12, 14), verdictUnresolved},
		{"faster, ranges apart", lower, v(10, 9, 11), v(7, 6, 8), verdictImproved},
		{"rate down, ranges apart", higher, v(100, 95, 105), v(80, 75, 85), verdictRegressed},
		{"rate up, ranges apart", higher, v(100, 95, 105), v(120, 115, 125), verdictImproved},
		{"no baseline", lower, v(0, 0, 0), v(1, 1, 1), verdictUnresolved},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The committed BENCHMARK.json is the manifest the metric tables build,
// and stays inside the driver's limits.
func TestManifest(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, built any
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	m := buildManifest()
	if err := json.Unmarshal(mustJSON(m), &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, built) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads: outside the driver's limits", len(endToEnd), len(perLayer), len(m.Workloads))
	}
	for _, w := range m.Workloads {
		if !metricName.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or a why of %d characters", w.Name, len(w.Why))
		}
	}
}

func testEnv(t *testing.T) *runEnv {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := &runEnv{root: root, scale: quickScale, seed: 3, seconds: 1, tmp: t.TempDir()}
	if e.samrd, err = buildSamrd(root); err != nil {
		t.Fatal(err)
	}
	return e
}

// Every workload runs end to end at quick scale against a really built
// samrd, untraced and traced, with no failed operation, and prints
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real samrd processes")
	}
	e := testEnv(t)
	spans := t.TempDir()
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), e, w.Name, traced, spans)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, res.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(spans, w.Name+".spans.jsonl")); err != nil {
					t.Errorf("%s: no spans file: %v", w.Name, err)
				}
				checkLayerTable(t, w.Name, res)
			}
		}
	}
}

// checkLayerTable holds the traced run to the identities its layer
// table is built on.
func checkLayerTable(t *testing.T, name string, res *workloadResult) {
	t.Helper()
	v := func(metric string) float64 { return res.Metrics[metric].Value }
	if v("trace_overhead_ratio") <= 0 || v("proc.cpu_s") <= 0 {
		t.Errorf("%s: trace_overhead_ratio %g, proc.cpu_s %g", name, v("trace_overhead_ratio"), v("proc.cpu_s"))
	}
	for _, w := range serviceWorkloads {
		if w.name != name {
			continue
		}
		stages := 0.0
		for _, stage := range w.path {
			if v(stageMetric(stage)) <= 0 {
				t.Errorf("%s: stage %s on the workload's path measured %g", name, stage, v(stageMetric(stage)))
			}
			us := v(stageMetric(stage))
			if nanoStages[stage] {
				us /= 1e3
			}
			stages += us
		}
		if got := stages + v("server.residual_us"); got < v("server.handler_us")*0.999 || got > v("server.handler_us")*1.001 {
			t.Errorf("%s: stages + residual = %g us, handler = %g us", name, got, v("server.handler_us"))
		}
		if v("admission.shed") != 0 || v("tier.store_errors") != 0 || v("tier.corrupt") != 0 || v("tier.peer_failures") != 0 {
			t.Errorf("%s: shed %g, store errors %g, corrupt %g, peer failures %g: all must be 0", name, v("admission.shed"), v("tier.store_errors"), v("tier.corrupt"), v("tier.peer_failures"))
		}
	}
	switch name {
	case "paper-pipeline":
		if v("trace.snapshots") != float64(4*(quickScale.Steps+1)) {
			t.Errorf("trace.snapshots = %g", v("trace.snapshots"))
		}
		if v("partition.hybrid_cold_us") <= 0 || v("sim.simulate_cold_ms") <= 0 || v("amr.advance_p50_ms") <= 0 {
			t.Errorf("paper-pipeline: a layers child measured nothing")
		}
	case "regrid-sessions":
		if v("memo.hits") != 0 || v("memo.misses") != v("sessions.steps") || v("sessions.steps") == 0 {
			t.Errorf("regrid-sessions: %g hits, %g misses, %g steps: every step must miss", v("memo.hits"), v("memo.misses"), v("sessions.steps"))
		}
	case "repeat-posts":
		if v("memo.misses") != 0 || v("memo.hit_ratio") != 1 || v("admission.admitted") != v("memo.hits") {
			t.Errorf("repeat-posts: %g misses, hit ratio %g, %g admitted for %g hits", v("memo.misses"), v("memo.hit_ratio"), v("admission.admitted"), v("memo.hits"))
		}
	case "fleet-share":
		if v("fleet.tier_served_ratio") != 1 || v("tier.disk_hits")+v("tier.peer_hits") != 2*v("tier.misses") || v("tier.stores") != v("tier.misses") {
			t.Errorf("fleet-share: served ratio %g, %g disk + %g peer hits for %g misses and %g stores", v("fleet.tier_served_ratio"), v("tier.disk_hits"), v("tier.peer_hits"), v("tier.misses"), v("tier.stores"))
		}
	}
}

// The figures child prints what `samrbench -experiment all -quick`
// prints, byte for byte.
func TestFiguresMatchSamrbench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/samrbench")
	}
	e := testEnv(t)
	bin := filepath.Join(t.TempDir(), "samrbench")
	build := exec.Command("go", "build", "-o", bin, "./cmd/samrbench")
	build.Dir = e.root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build samrbench: %v\n%s", err, out)
	}
	want, err := exec.Command(bin, "-experiment", "all", "-quick").Output()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, mode := range []string{"tracegen", "figures"} {
		if _, _, _, err := runChild(context.Background(), mode, dir, quickScale, mode == "figures"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(figuresFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("figures child output (%d bytes) differs from samrbench -experiment all -quick (%d bytes)", len(got), len(want))
	}
}
