// Command samrbench reproduces the paper's evaluation figures and the
// repository's ablations, printing each figure's data series and
// agreement statistics as text tables. The experiments and their
// order live in internal/experiments (Run); this command parses the
// flags, builds the trace loader and calls it.
//
// The menu (experiment -> what it prints):
//
//	fig1 -> BL2D dynamic behaviour under a static partitioner (paper Figure 1)
//	fig4 -> RM2D  model vs actual (communication and data migration)
//	fig5 -> BL2D  model vs actual
//	fig6 -> SC2D  model vs actual
//	fig7 -> TP2D  model vs actual
//	trajectory -> Figure 3 (right): classification-space locus
//	ablationA..E -> the ablations of internal/experiments/ablations.go (C: meta-partitioner vs static choices)
//	all -> the eleven above, in this order
//	sweep -> BL2D static hybrid across a processor-count ladder (standalone)
//	selections -> the Figure 2 meta-partitioner's choice at every step of
//	              each application, with the classification sample behind
//	              it (standalone)
//
// The programs that used to re-print parts of this menu are gone:
// metapart's per-step trace, the shockwave example's trajectory and the
// metapartitioner example's selection counts are selections; the
// meta-vs-static table both printed is ablationC; the oilreservoir
// example is fig1 and fig5.
//
// Usage:
//
//	samrbench -experiment fig5
//	samrbench -experiment all -procs 16
//	samrbench -experiment fig4 -quick      (reduced scale, for smoke tests)
//	samrbench -experiment fig1 -trace bl2d.trc
//	samrbench -experiment selections -quick -procs 32
//	samrbench -experiment sweep -cachestats  (memoization counters on stderr)
//
// -procs below 1 and a -format other than table or csv are usage
// errors (exit status 2).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"samr/internal/apps"
	"samr/internal/experiments"
	"samr/internal/partition"
	"samr/internal/sim"
	"samr/internal/trace"
)

func main() {
	var (
		exp        = flag.String("experiment", "all", "fig1, fig4, fig5, fig6, fig7, trajectory, ablationA, ablationB, ablationC, ablationD, ablationE, sweep, selections, or all (the paper set; sweep and selections run standalone only)")
		procs      = flag.Int("procs", experiments.DefaultProcs, "number of processors to simulate")
		quick      = flag.Bool("quick", false, "use reduced-scale traces (16x16 base, 3 levels, 20 steps)")
		trPath     = flag.String("trace", "", "use a trace file instead of generating the experiment's default trace")
		format     = flag.String("format", "table", "figure output format: table or csv")
		cachestats = flag.Bool("cachestats", false, "print the memoization-cache counters to stderr after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	if *procs < 1 || *format != "table" && *format != "csv" {
		fmt.Fprintln(os.Stderr, "samrbench: -procs must be at least 1 and -format table or csv")
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C cancels the context; the cancellation threads through the
	// experiment pipeline into every partitioner, which aborts mid-batch
	// instead of running the remaining figures to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := profiled(*cpuprofile, *memprofile, func() error {
		return run(ctx, *exp, *procs, *quick, *trPath, *format == "csv")
	}); err != nil {
		fmt.Fprintln(os.Stderr, "samrbench:", err)
		os.Exit(1)
	}
	if *cachestats {
		printCacheStats()
	}
}

// printCacheStats reports the memoization counters of the run to
// stderr (stderr so table/CSV output stays pipeline-clean): the
// partition-layer content-addressed caches (unit chains, hybrid preps,
// level indexes) and the simulator's in-run dedup savings.
func printCacheStats() {
	hits, misses, shared, entries, capacity := partition.CacheStats()
	parts, evals, migs := sim.MemoStats()
	fmt.Fprintf(os.Stderr, "cachestats: unit-chains hits=%d misses=%d shared=%d entries=%d/%d\n",
		hits, misses, shared, entries, capacity)
	fmt.Fprintf(os.Stderr, "cachestats: sim-memo partitions=%d evaluations=%d migration-shortcuts=%d\n",
		parts, evals, migs)
}

// profiled brackets f with the optional pprof captures so hot-path
// claims about the experiment pipeline are inspectable.
func profiled(cpuprofile, memprofile string, f func() error) error {
	if cpuprofile != "" {
		cf, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := f(); err != nil {
		return err
	}
	if memprofile != "" {
		mf, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC() // flush recent garbage so the profile shows live objects
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
	}
	return nil
}

// run builds the trace loader -trace, -quick or the paper scale asks
// for and runs the experiment through it.
func run(ctx context.Context, exp string, procs int, quick bool, trPath string, csvOut bool) error {
	load := func(app string) (*trace.Trace, error) {
		if trPath != "" {
			f, err := os.Open(trPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return trace.Read(f)
		}
		if quick {
			return apps.QuickTrace(ctx, app)
		}
		return apps.PaperTrace(ctx, app)
	}
	return experiments.Run(ctx, exp, load, procs, csvOut, os.Stdout)
}
