// Command metapart runs the meta-partitioner over a trace: it
// classifies every snapshot into the partitioner-centric classification
// space (dimensions I, II, III) and reports the partitioner selected at
// each step, followed by the execution-time comparison against the
// static choices.
//
// Usage:
//
//	metapart -app BL2D
//	metapart -trace bl2d.trc -procs 32
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/experiments"
	"samr/internal/sim"
	"samr/internal/trace"
)

func main() {
	var (
		app    = flag.String("app", "BL2D", "application kernel (ignored with -trace)")
		trPath = flag.String("trace", "", "trace file to classify")
		procs  = flag.Int("procs", experiments.DefaultProcs, "number of processors to simulate")
		quick  = flag.Bool("quick", false, "use the reduced-scale trace")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tr *trace.Trace
	var err error
	switch {
	case *trPath != "":
		var f *os.File
		if f, err = os.Open(*trPath); err == nil {
			tr, err = trace.Read(f)
			f.Close()
		}
	case *quick:
		tr, err = apps.QuickTrace(ctx, *app)
	default:
		tr, err = apps.PaperTrace(ctx, *app)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "metapart:", err)
		os.Exit(1)
	}

	m := sim.DefaultMachine()
	meta := core.NewMetaPartitioner(core.DefaultPartitionCost)
	fmt.Printf("%6s %8s %8s %8s %8s %10s  %s\n",
		"step", "dimI", "dimII", "dimIII", "sizeNorm", "points", "selected partitioner")
	for _, snap := range tr.Snapshots {
		p := meta.Select(snap.H, m.TimeSlot(snap.H, *procs))
		s, _ := meta.LastSample()
		fmt.Printf("%6d %8.3f %8.3f %8.3f %8.3f %10d  %s\n",
			snap.Step, s.DimI, s.DimII, s.DimIII, s.SizeNorm, s.Points, p.Name())
	}
	fmt.Println()
	tb, err := experiments.MetaVsStatic(ctx, tr, *procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metapart:", err)
		os.Exit(1)
	}
	tb.Print(os.Stdout)
}
