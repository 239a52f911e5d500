package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"samr/internal/amr"
	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/experiments"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sim"
	"samr/internal/trace"
)

// The paper-pipeline workload runs the paper's evaluation the way
// `samrbench -experiment all` does, split into its two phases, each in
// a fresh process of this binary so that nothing is warm: "tracegen"
// runs the four applications under the AMR driver and writes their
// traces, "figures" reads the traces back and produces every figure
// and ablation. One pass of both is one operation. It is the only
// workload where the AMR substrate and the simulator do the work and
// the HTTP stack does none.

const pipelineWhy = "the paper's evaluation (trace generation, then every figure and ablation) in fresh processes: the AMR substrate and the simulator do the work, the HTTP stack none"

// childEnv selects a child mode of this binary; main and TestMain both
// check it first.
const childEnv = "SAMR_BENCH_CHILD"

// experimentNames is the `samrbench -experiment all` sequence.
var experimentNames = []string{"fig1", "fig4", "fig5", "fig6", "fig7", "trajectory", "ablationA", "ablationB", "ablationC", "ablationD", "ablationE"}

// childReport is what a child process hands back.
type childReport struct {
	// Metrics are per-layer values by their BENCHMARK.json name.
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans,omitempty"`
	// RSSKB is the child's own peak resident set, read as it ends.
	RSSKB int64 `json:"rss_kb"`
}

// runChild runs this binary in child mode over dir and returns its
// report, its wall time and what it cost.
func runChild(ctx context.Context, mode, dir string, sc scale, traced bool) (*childReport, float64, usage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, usage{}, err
	}
	report := filepath.Join(dir, "report-"+mode+".json")
	args := []string{"-dir", dir, "-scale", sc.Name, "-report", report}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"="+mode)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, usage{}, fmt.Errorf("child %s: %v\n%s", mode, err, stderr.String())
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		return nil, 0, usage{}, err
	}
	rep := &childReport{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, 0, usage{}, fmt.Errorf("child %s report: %w", mode, err)
	}
	return rep, wall, usage{CPU: cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), RSSKB: rep.RSSKB}, nil
}

// childMain is the entry point of a child process.
func childMain(mode string, args []string) error {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	dir := fs.String("dir", "", "directory of the .trc files")
	scaleName := fs.String("scale", benchScale.Name, "input scale")
	traced := fs.Bool("traced", false, "record spans")
	report := fs.String("report", "", "where to write the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := benchScale
	if *scaleName == quickScale.Name {
		sc = quickScale
	}
	var rec *recorder
	if *traced {
		rec = newRecorder()
	}
	rep := &childReport{Metrics: map[string]float64{}}
	var err error
	switch mode {
	case "tracegen":
		err = childTracegen(context.Background(), *dir, sc, rec, rep)
	case "figures":
		err = childFigures(context.Background(), *dir, rec, rep)
	case "layers-partition":
		err = childLayersPartition(context.Background(), *dir, rep)
	case "layers-sim":
		err = childLayersSim(context.Background(), *dir, rep)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		rep.Spans = rec.spans
	}
	rep.RSSKB = peakRSSKB(os.Getpid())
	return os.WriteFile(*report, mustJSON(rep), 0o644)
}

func trcPath(dir, app string) string { return filepath.Join(dir, app+".trc") }

// childTracegen generates and writes the four traces. Untraced it
// calls apps.Generate, the entry point samrbench and samrtrace use;
// traced it drives the AMR driver step by step, which is what amr.Run
// does, with a span per coarse step. The goldens hold both to the same
// bytes.
func childTracegen(ctx context.Context, dir string, sc scale, rec *recorder, rep *childReport) error {
	var snaps, boxes, size, writeMS float64
	for _, app := range apps.Names {
		start := time.Now()
		var tr *trace.Trace
		var err error
		if rec == nil {
			tr, err = apps.Generate(ctx, app, sc.config(), sc.Steps)
		} else {
			tr, err = generateTraced(ctx, app, sc, rec)
		}
		if err != nil {
			return err
		}
		rep.Metrics["apps.generate_s."+app] = time.Since(start).Seconds()
		start = time.Now()
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			return err
		}
		if err := os.WriteFile(trcPath(dir, app), buf.Bytes(), 0o644); err != nil {
			return err
		}
		writeMS += float64(time.Since(start)) / 1e6
		size += float64(buf.Len())
		snaps += float64(tr.Len())
		for _, s := range tr.Snapshots {
			for _, l := range s.H.Levels {
				boxes += float64(len(l.Boxes))
			}
		}
	}
	rep.Metrics["trace.write_ms"] = writeMS
	rep.Metrics["trace.bytes"] = size
	rep.Metrics["trace.snapshots"] = snaps
	rep.Metrics["trace.boxes_mean"] = boxes / snaps
	return nil
}

func generateTraced(ctx context.Context, app string, sc scale, rec *recorder) (*trace.Trace, error) {
	root := rec.begin(0, "apps.generate."+app)
	defer rec.end(root)
	k, err := apps.Kernel(app)
	if err != nil {
		return nil, err
	}
	cfg := sc.config()
	d, err := amr.New(k, cfg)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	h := d.Hierarchy()
	tr := &trace.Trace{App: k.Name(), RefRatio: cfg.RefRatio, MaxLevels: cfg.MaxLevels, Domain: h.Domain}
	tr.Append(0, d.Time(), h)
	for s := 0; s < sc.Steps; s++ {
		id := rec.begin(root, "amr.advance")
		err := d.Advance(ctx)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		tr.Append(s+1, d.Time(), d.Hierarchy())
	}
	return tr, nil
}

// readTraces loads the four .trc files of dir, in apps.Names order.
func readTraces(dir string) (map[string]*trace.Trace, error) {
	out := make(map[string]*trace.Trace, len(apps.Names))
	for _, app := range apps.Names {
		f, err := os.Open(trcPath(dir, app))
		if err != nil {
			return nil, err
		}
		tr, err := trace.Read(bufio.NewReader(f))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", trcPath(dir, app), err)
		}
		out[app] = tr
	}
	return out, nil
}

// figuresFile is where the figures child writes the evaluation output.
func figuresFile(dir string) string { return filepath.Join(dir, "figures.txt") }

// childFigures produces the `samrbench -experiment all` output from the
// traces in dir, one span per experiment, caches carried from one
// experiment to the next as in a real run.
func childFigures(ctx context.Context, dir string, rec *recorder, rep *childReport) error {
	start := time.Now()
	traces, err := readTraces(dir)
	if err != nil {
		return err
	}
	rep.Metrics["trace.read_ms"] = float64(time.Since(start)) / 1e6
	f, err := os.Create(figuresFile(dir))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, name := range experimentNames {
		var id int64
		if rec != nil {
			id = rec.begin(0, "experiments."+name)
		}
		start := time.Now()
		err := runExperiment(ctx, name, traces, experiments.DefaultProcs, w)
		rep.Metrics["experiments."+name+"_ms"] = float64(time.Since(start)) / 1e6
		if rec != nil {
			rec.end(id)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	parts, evals, migs := sim.MemoStats()
	rep.Metrics["sim.memo_partitions"] = float64(parts)
	rep.Metrics["sim.memo_evaluations"] = float64(evals)
	rep.Metrics["sim.memo_migrations"] = float64(migs)
	return f.Close()
}

var figApps = map[string]string{"fig4": "RM2D", "fig5": "BL2D", "fig6": "SC2D", "fig7": "TP2D"}

// runExperiment writes one experiment of the `all` set to w, byte for
// byte as cmd/samrbench prints it in table format.
func runExperiment(ctx context.Context, name string, traces map[string]*trace.Trace, procs int, w io.Writer) error {
	type printer interface{ Print(io.Writer) }
	perApp := func(f func(*trace.Trace) (printer, error)) error {
		for _, app := range apps.Names {
			p, err := f(traces[app])
			if err != nil {
				return err
			}
			p.Print(w)
		}
		return nil
	}
	switch {
	case name == "fig1":
		f, err := experiments.Fig1(ctx, traces["BL2D"], procs)
		if err != nil {
			return err
		}
		f.Print(w)
	case figApps[name] != "":
		v, err := experiments.FigModelVsActual(ctx, traces[figApps[name]], procs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- %s (paper Figure %s) ---\n", v.App, name[3:])
		v.Comm.Print(w)
		v.Mig.Print(w)
	case name == "trajectory":
		f, err := experiments.ClassificationTrajectory(ctx, traces["BL2D"], procs)
		if err != nil {
			return err
		}
		f.Print(w)
	case name == "ablationA":
		return perApp(func(tr *trace.Trace) (printer, error) { return experiments.AblationDenominator(ctx, tr, procs) })
	case name == "ablationB":
		return perApp(func(tr *trace.Trace) (printer, error) { return experiments.AblationPartitioners(ctx, tr, procs) })
	case name == "ablationC":
		return perApp(func(tr *trace.Trace) (printer, error) { return experiments.MetaVsStatic(ctx, tr, procs) })
	case name == "ablationD":
		return perApp(func(tr *trace.Trace) (printer, error) { return experiments.AblationAbsoluteImportance(ctx, tr, procs) })
	case name == "ablationE":
		return perApp(func(tr *trace.Trace) (printer, error) { return experiments.AblationPostMapping(ctx, tr, procs) })
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// snapshotsOf flattens the traces into one list, with each snapshot's
// predecessor in its own trace (nil for a trace's first).
func snapshotsOf(traces map[string]*trace.Trace) (hs, prevs []*grid.Hierarchy) {
	for _, app := range apps.Names {
		var prev *grid.Hierarchy
		for _, s := range traces[app].Snapshots {
			hs, prevs = append(hs, s.H), append(prevs, prev)
			prev = s.H
		}
	}
	return hs, prevs
}

// perCallUS times f over every snapshot and returns the mean
// microseconds per call.
func perCallUS(n int, f func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(n), nil
}

// childLayersPartition times the model and each partitioner over every
// snapshot at the paper's 16 processors. The process is fresh, so the
// first pass of a partitioner finds the unit-chain caches cold for it
// and the second finds them warm. The hybrid runs first: its cold cost
// is the measured counterpart of the daemon's -partition-cost.
func childLayersPartition(ctx context.Context, dir string, rep *childReport) error {
	traces, err := readTraces(dir)
	if err != nil {
		return err
	}
	hs, prevs := snapshotsOf(traces)
	const nprocs = experiments.DefaultProcs
	m := rep.Metrics
	pass := func(metric string, p partition.Partitioner) ([]*partition.Assignment, error) {
		as := make([]*partition.Assignment, len(hs))
		us, err := perCallUS(len(hs), func(i int) (err error) {
			if prevs[i] == nil {
				if r, ok := p.(interface{ Reset() }); ok {
					r.Reset() // a stateful partitioner starts each trace afresh
				}
			}
			as[i], err = p.Partition(ctx, hs[i], nprocs)
			return err
		})
		m[metric] = us
		return as, err
	}
	as, err := pass("partition.hybrid_cold_us", partition.NewNatureFable())
	if err != nil {
		return err
	}
	var frags float64
	for _, a := range as {
		frags += float64(len(a.Fragments))
	}
	m["partition.fragments_per_snap"] = frags / float64(len(as))
	for _, p := range []struct {
		metric string
		p      partition.Partitioner
	}{
		{"partition.hybrid_warm_us", partition.NewNatureFable()},
		{"partition.domain_cold_us", partition.NewDomainSFC()},
		{"partition.domain_warm_us", partition.NewDomainSFC()},
		{"partition.patch_us", partition.NewPatchBased()},
		{"partition.postmap_us", partition.NewPostMapped(partition.NewDomainSFC())},
	} {
		if _, err := pass(p.metric, p.p); err != nil {
			return err
		}
	}
	hits, misses, _, _, _ := partition.CacheStats()
	m["partition.chain_hits"], m["partition.chain_misses"] = float64(hits), float64(misses)

	if m["core.penalties_us_per_snap"], err = perCallUS(len(hs), func(i int) error {
		core.LoadPenalty(hs[i])
		core.CommunicationPenalty(hs[i])
		if prevs[i] != nil {
			core.MigrationPenalty(prevs[i], hs[i])
		}
		return nil
	}); err != nil {
		return err
	}
	meta := core.NewMetaPartitioner(defaultPartitionCost)
	machine := sim.DefaultMachine()
	m["core.select_us_per_snap"], err = perCallUS(len(hs), func(i int) error {
		if prevs[i] == nil {
			meta.Reset()
		}
		meta.Select(hs[i], float64(hs[i].Workload())*machine.CellTime/nprocs)
		return nil
	})
	return err
}

// defaultPartitionCost is the daemon's default -partition-cost, the
// number partition.hybrid_cold_us is to be read against.
const defaultPartitionCost = 2e-4

// childLayersSim times the simulator's pieces: Evaluate and Migration
// over every snapshot under the hybrid's assignments, then a whole
// SimulateTrace of BL2D twice (step caches cold, then warm).
func childLayersSim(ctx context.Context, dir string, rep *childReport) error {
	traces, err := readTraces(dir)
	if err != nil {
		return err
	}
	const nprocs = experiments.DefaultProcs
	machine := sim.DefaultMachine()
	m := rep.Metrics
	for _, metric := range []string{"sim.simulate_cold_ms", "sim.simulate_warm_ms"} {
		start := time.Now()
		if _, err := sim.SimulateTrace(ctx, traces["BL2D"], partition.NewNatureFable(), nprocs, machine); err != nil {
			return err
		}
		m[metric] = float64(time.Since(start)) / 1e6
	}
	hs, prevs := snapshotsOf(traces)
	as := make([]*partition.Assignment, len(hs))
	for i, h := range hs {
		if as[i], err = partition.NewNatureFable().Partition(ctx, h, nprocs); err != nil {
			return err
		}
	}
	if m["sim.evaluate_us_per_snap"], err = perCallUS(len(hs), func(i int) error {
		_, err := sim.Evaluate(ctx, hs[i], as[i], machine)
		return err
	}); err != nil {
		return err
	}
	pairs := 0
	start := time.Now()
	for i := range hs {
		if prevs[i] != nil {
			sim.Migration(prevs[i], hs[i], as[i-1], as[i])
			pairs++
		}
	}
	m["sim.migration_us_per_pair"] = float64(time.Since(start)) / 1e3 / float64(pairs)
	return nil
}

// golden maps the file names of one pipeline pass to their sha256.
type golden map[string]string

func goldenPath(root string, sc scale) string {
	return filepath.Join(root, "bench", "golden", sc.Name+".json")
}

func loadGolden(root string, sc scale) (golden, error) {
	raw, err := os.ReadFile(goldenPath(root, sc))
	if err != nil {
		return nil, fmt.Errorf("%w (run with -regen-golden to create it)", err)
	}
	g := golden{}
	return g, json.Unmarshal(raw, &g)
}

// hashPass hashes what a pipeline pass left in dir.
func hashPass(dir string) (golden, error) {
	g := golden{}
	files := []string{filepath.Base(figuresFile(dir))}
	for _, app := range apps.Names {
		files = append(files, filepath.Base(trcPath(dir, app)))
	}
	for _, name := range files {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(raw)
		g[name] = hex.EncodeToString(sum[:])
	}
	return g, nil
}

// pipelinePass is one measured pass of the pipeline.
type pipelinePass struct {
	tracegenS, figuresS float64
	cost                usage // CPU summed, RSS the larger child's
	mismatches          []string
	reports             []*childReport
}

// runPipelinePass runs tracegen then figures at scale sc in fresh
// children and compares what they wrote with the goldens.
func runPipelinePass(ctx context.Context, e *runEnv, sc scale, traced bool) (*pipelinePass, error) {
	dir, err := os.MkdirTemp(e.tmp, "pipeline-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pipelinePass{}
	for _, phase := range []struct {
		mode string
		wall *float64
	}{{"tracegen", &p.tracegenS}, {"figures", &p.figuresS}} {
		rep, wall, cost, err := runChild(ctx, phase.mode, dir, sc, traced)
		if err != nil {
			return nil, err
		}
		*phase.wall = wall
		p.cost.CPU += cost.CPU
		p.cost.RSSKB = max(p.cost.RSSKB, cost.RSSKB)
		p.reports = append(p.reports, rep)
	}
	got, err := hashPass(dir)
	if err != nil {
		return nil, err
	}
	want, err := loadGolden(e.root, sc)
	if err != nil {
		return nil, err
	}
	for name, sum := range got {
		if want[name] != sum {
			p.mismatches = append(p.mismatches, fmt.Sprintf("%s: sha256 %.12s, golden %.12s", name, sum, want[name]))
		}
	}
	return p, nil
}

// regenGolden rewrites the goldens of both scales from this checkout.
func regenGolden(ctx context.Context, e *runEnv) error {
	for _, sc := range []scale{quickScale, benchScale} {
		dir, err := os.MkdirTemp(e.tmp, "golden-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		for _, mode := range []string{"tracegen", "figures"} {
			if _, _, _, err := runChild(ctx, mode, dir, sc, false); err != nil {
				return err
			}
		}
		g, err := hashPass(dir)
		if err != nil {
			return err
		}
		raw, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath(e.root, sc)), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(goldenPath(e.root, sc), append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", goldenPath(e.root, sc))
	}
	return nil
}

// pipelineRep is one repetition of the paper-pipeline workload. Set-up
// is the same pipeline at quick scale, checked against its own
// goldens: it proves the child binary, the scratch directory and the
// goldens work before the clock starts, and brings the binary into the
// page cache.
func pipelineRep(ctx context.Context, e *runEnv, traced bool) (*repResult, *pipelinePass, error) {
	r := &repResult{}
	t0 := time.Now()
	warm, err := runPipelinePass(ctx, e, quickScale, false)
	if err != nil {
		return nil, nil, err
	}
	r.setupS = time.Since(t0).Seconds()
	p, err := runPipelinePass(ctx, e, e.scale, traced)
	if err != nil {
		return nil, nil, err
	}
	r.wallS = p.tracegenS + p.figuresS
	r.cost = p.cost
	r.attempted = 1
	s := sample{ms: r.wallS * 1e3, op: &op{Timed: true}}
	if mm := append(warm.mismatches, p.mismatches...); len(mm) > 0 {
		s.fail = mm[0]
		r.failed = 1
		r.failures = mm
	}
	r.samples = []sample{s}
	return r, p, nil
}
