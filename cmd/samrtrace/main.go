// Command samrtrace generates a partition-independent SAMR application
// trace: it runs one of the four paper applications (RM2D, BL2D, SC2D,
// TP2D) under the Berger–Colella driver and records the grid hierarchy
// after every coarse step. Ctrl-C cancels the run: the cancellation
// threads through the driver's worker pool, which stops dispatching
// patch work units and exits without writing a partial trace.
//
// Usage:
//
//	samrtrace -app BL2D -steps 100 -o bl2d.trc
//	samrtrace -app RM2D -base 32 -levels 5 -o rm2d.trc
//	samrtrace -app TP2D -cpuprofile cpu.pprof -memprofile mem.pprof
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
	"samr/internal/trace"
)

func main() {
	var (
		app        = flag.String("app", "TP2D", "application kernel: RM2D, BL2D, SC2D or TP2D")
		steps      = flag.Int("steps", apps.PaperSteps, "coarse time steps to run")
		base       = flag.Int("base", 0, "base grid size (0 = paper default)")
		levels     = flag.Int("levels", 0, "maximum levels (0 = paper default)")
		out        = flag.String("o", "", "output trace file (default <app>.trc)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	if *steps < 0 || *base < 0 || *levels < 0 {
		fmt.Fprintln(os.Stderr, "samrtrace: -steps, -base and -levels must not be negative")
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C cancels the context; the driver aborts between patch work
	// units instead of running the remaining steps.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *app, *steps, *base, *levels, *out, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "samrtrace:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, app string, steps, base, levels int, out, cpuprofile, memprofile string) error {
	// Validate the application name up front (accepting any case) so a
	// typo fails immediately with the list of valid kernels instead of
	// deep inside trace generation.
	name, err := apps.Normalize(app)
	if err != nil {
		return err
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := apps.PaperConfig()
	if base > 0 {
		cfg.BaseSize = base
	}
	if levels > 0 {
		cfg.MaxLevels = levels
	}
	tr, err := apps.Generate(ctx, name, cfg, steps)
	if err != nil {
		return err
	}
	path := out
	if path == "" {
		path = name + ".trc"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		return err
	}
	last := tr.Snapshots[tr.Len()-1]
	fmt.Printf("wrote %s: %s, %d snapshots, final hierarchy %d levels / %d points\n",
		path, tr.App, tr.Len(), len(last.H.Levels), last.H.NumPoints())

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
