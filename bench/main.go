// Command bench is the repository's benchmark: four named workloads
// (the paper's evaluation pipeline and three traffic shapes against
// real samrd processes), end-to-end metrics with fixed regression
// bounds, and a traced run that measures every layer from outside the
// program. See README.md beside this file.
//
//	bash bench/run.sh --workload regrid-sessions --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out a.json
//	bash bench/run.sh --workload all --seed 1 --trace 1 --out a.traced.json
//	bash bench/run.sh --compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		if err := childMain(mode, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "paper-pipeline, regrid-sessions, repeat-posts, fleet-share, or all")
		seed     = fs.Int64("seed", 1, "workload seed: orders and samples the requests, never changes how many there are")
		seconds  = fs.Int("seconds", runSeconds, "length of the measurement; request counts scale with it")
		traceOn  = fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run, per-layer metrics")
		out      = fs.String("out", "", "also write a result file (metrics with min, max and raw repetition values, and the env block)")
		quick    = fs.Bool("quick", false, "smoke-test scale (16x16, 3 levels, 20 steps); numbers are not comparable")
		regen    = fs.Bool("regen-golden", false, "rewrite bench/golden from this checkout and exit")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		print    = fs.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *print:
		raw, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(raw))
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}

	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	e := &runEnv{root: root, scale: benchScale, seed: *seed, seconds: *seconds}
	if *quick {
		e.scale = quickScale
	}
	if e.samrd, err = buildSamrd(root); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return fail(err)
	}
	if e.tmp, err = os.MkdirTemp(buildDir(root), "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.tmp)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *regen {
		if err := regenGolden(ctx, e); err != nil {
			return fail(err)
		}
		return 0
	}

	var names []string
	for _, w := range workloadNames() {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	spansDir := filepath.Join(buildDir(root), "spans")
	if *out != "" {
		spansDir = filepath.Dir(*out)
	}
	file := resultFile{Env: envBlock(e)}
	total := driverLine{Correct: true, Metrics: map[string]driverMetric{}}
	for _, name := range names {
		res, err := runWorkload(ctx, e, name, *traceOn == 1, spansDir)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		res.print(os.Stdout)
		file.Results = append(file.Results, res)
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Failed == 0
		if len(names) == 1 {
			total.Metrics = res.driverMetrics()
		}
	}
	if *out != "" {
		raw, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	line, _ := json.Marshal(total)
	fmt.Println(string(line))
	if total.Failed > 0 {
		return 1
	}
	return 0
}

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// driverLine is the last line of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what -out writes: a number is never separated from the
// machine and the code that produced it.
type resultFile struct {
	Env     map[string]any    `json:"env"`
	Results []*workloadResult `json:"results"`
}

// metricValue is one reported metric: the better quartile of the
// repetitions' values, with their range, their count and the values
// themselves.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	N     int       `json:"n"`
	Raw   []float64 `json:"raw"`
}

type workloadResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Scale     string                 `json:"scale"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Failures  []string               `json:"failures,omitempty"`
	Schedule  string                 `json:"schedule_sha256,omitempty"`
	Samples   int                    `json:"timed_samples_per_repetition"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(name string, traced bool) *workloadResult {
	return &workloadResult{Workload: name, Traced: traced, Metrics: map[string]metricValue{}}
}

func defOf(name string) metricDef {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d
			}
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// set records a metric from its per-repetition values. The reported
// value is their better quartile, not their median: what disturbs a
// repetition on a shared box (a neighbour's burst, a journal commit)
// only ever makes it slower, so the slow half of the values says more
// about the box than about the code. A quarter in from the fast end is
// still a value most quiet repetitions reach, and a burst has to spoil
// three quarters of a run to move it.
func (r *workloadResult) set(name string, raw ...float64) {
	d := defOf(name)
	lo, hi := minMax(raw)
	r.Metrics[name] = metricValue{Value: quartile(raw, d.Better == "higher"), Unit: d.Unit, Min: lo, Max: hi, N: len(raw), Raw: raw}
}

// count adds a repetition's operations and failures.
func (r *workloadResult) count(rep *repResult) {
	r.Attempted += rep.attempted
	r.Failed += rep.failed
	for _, f := range rep.failures {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, f)
		}
	}
	if r.Attempted > 0 {
		r.FailRatio = float64(r.Failed) / float64(r.Attempted)
	}
}

func (r *workloadResult) driverMetrics() map[string]driverMetric {
	out := make(map[string]driverMetric, len(r.Metrics))
	for name, v := range r.Metrics {
		out[name] = driverMetric{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// print lists every metric by name with its unit.
func (r *workloadResult) print(w *os.File) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s: %s, scale %s, %d operations, %d failed (fail_ratio %g) ==\n", r.Workload, kind, r.Scale, r.Attempted, r.Failed, r.FailRatio)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.6g %-6s", name, v.Value, v.Unit)
		if v.N > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g n %d", v.Min, v.Max, v.N)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// runWorkload runs one workload, untraced or traced.
func runWorkload(ctx context.Context, e *runEnv, name string, traced bool, spansDir string) (*workloadResult, error) {
	var res *workloadResult
	var err error
	rec := newRecorder()
	var svc *serviceWorkload
	for _, w := range serviceWorkloads {
		if w.name == name {
			svc = w
		}
	}
	switch {
	case !traced && svc == nil:
		res, err = untraced(name, pipelinePasses(e), func() (*repResult, float64, error) {
			r, _, err := pipelineRep(ctx, e, false)
			return r, 0, err
		})
	case !traced:
		var in *serviceInputs
		if in, err = newServiceInputs(ctx, e); err != nil {
			return nil, err
		}
		res, err = untraced(name, reps, func() (*repResult, float64, error) {
			r, err := svc.rep(ctx, e, in, reps, nil)
			return r, in.genS, err
		})
	case svc == nil:
		res, err = tracedPipeline(ctx, e, rec)
	default:
		res, err = svc.traced(ctx, e, rec)
	}
	if err != nil {
		return nil, err
	}
	res.Scale = e.scale.Name
	if traced {
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.set(d.Name, 0) // a layer this workload does not exercise
			}
		}
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return nil, err
		}
		if err := rec.write(filepath.Join(spansDir, name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pipelinePasses is the number of repetitions of paper-pipeline: three
// passes of about four seconds when -seconds is 10.
func pipelinePasses(e *runEnv) int { return max(2, 3*e.seconds/10) }

// untraced runs n repetitions of a workload and reduces them to the
// end-to-end metrics: one value per repetition and metric. (A
// repetition of paper-pipeline is one operation, so its median and its
// 95th percentile are the same pass.) rep also returns the set-up time
// the repetitions share (input generation), which is part of every
// repetition's set-up.
func untraced(name string, n int, rep func() (*repResult, float64, error)) (*workloadResult, error) {
	res := newResult(name, false)
	var setup, p50, p95, rate, cpu, rss []float64
	for i := 0; i < n; i++ {
		r, sharedS, err := rep()
		if err != nil {
			return nil, err
		}
		res.count(r)
		if len(r.sched.run) > 0 {
			res.Schedule = r.sched.hash()
		}
		ms := r.timedMS(isTimed)
		res.Samples = len(ms)
		setup = append(setup, sharedS+r.setupS)
		rss = append(rss, float64(r.cost.RSSKB)/1024)
		if len(ms) == 0 {
			continue // every operation failed: no latency, no rate
		}
		p50 = append(p50, percentile(ms, 50))
		p95 = append(p95, percentile(ms, 95))
		rate = append(rate, float64(len(ms))/r.wallS)
		cpu = append(cpu, r.cost.CPU.Seconds()*1e3/float64(len(ms)))
	}
	res.set("setup_s", setup...)
	res.set("op_p50_ms", p50...)
	res.set("op_p95_ms", p95...)
	res.set("ops_per_s", rate...)
	res.set("cpu_ms_per_op", cpu...)
	res.set("peak_rss_mb", rss...)
	return res, nil
}

// tracedPipeline is the traced run of paper-pipeline: an untraced pass
// as the base of trace_overhead_ratio, a traced pass whose children
// record a span per coarse step and per experiment, and the two layers
// children.
func tracedPipeline(ctx context.Context, e *runEnv, rec *recorder) (*workloadResult, error) {
	res := newResult("paper-pipeline", true)
	plain, _, err := pipelineRep(ctx, e, false)
	if err != nil {
		return nil, err
	}
	tr, pass, err := pipelineRep(ctx, e, true)
	if err != nil {
		return nil, err
	}
	res.count(plain)
	res.count(tr)
	res.set("pipeline.tracegen_s", pass.tracegenS)
	res.set("pipeline.figures_s", pass.figuresS)
	res.set("trace_overhead_ratio", tr.wallS/plain.wallS)
	res.set("proc.cpu_s", tr.cost.CPU.Seconds())

	// The layers children read the traces of a pass of their own.
	dir, err := os.MkdirTemp(e.tmp, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reports := pass.reports
	for _, mode := range []string{"tracegen", "layers-partition", "layers-sim"} {
		rep, _, _, err := runChild(ctx, mode, dir, e.scale, false)
		if err != nil {
			return nil, err
		}
		if mode != "tracegen" {
			reports = append(reports, rep)
		}
	}
	var advance []float64
	for _, rep := range reports {
		for name, v := range rep.Metrics {
			res.set(name, v)
		}
		rec.adopt(rep.Spans)
		for _, s := range rep.Spans {
			if s.Name == "amr.advance" {
				advance = append(advance, float64(s.End-s.Start)/1e6)
			}
		}
	}
	_, worst := minMax(advance)
	res.set("amr.advance_p50_ms", percentile(advance, 50))
	res.set("amr.advance_max_ms", worst)
	return res, nil
}

// envBlock describes the machine and the code of a result file.
func envBlock(e *runEnv) map[string]any {
	env := map[string]any{
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"seed":        e.seed,
		"seconds":     e.seconds,
		"repetitions": reps,
		"scale":       e.scale,
		"comparable":  e.scale == benchScale,
		"scratch_dir": buildDir(e.root),
		"commit":      "unknown",
		"cpu_model":   "unknown",
		"scratch_fs":  "unknown",
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = e.root
	if out, err := git.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if syscall.Statfs(e.root, &st) == nil {
		env["scratch_fs"] = fmt.Sprintf("statfs type 0x%x", st.Type)
	}
	return env
}
