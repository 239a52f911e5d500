// Shockwave example: Richtmyer–Meshkov (RM2D) with per-step
// classification. A compressible-Euler simulation of a shock hitting a
// perturbed interface drives irregular refinement dynamics; the
// classifier maps each snapshot onto the continuous classification
// space (the trajectory of Figure 3, right), and the example shows how
// the three dimensions respond to the shock crossing the interface.
//
//	go run ./examples/shockwave -quick
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/sim"
	"samr/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-scale run")
	procs := flag.Int("procs", 16, "processors (scales the time-slot estimate)")
	flag.Parse()

	ctx := context.Background()
	var tr *trace.Trace
	var err error
	if *quick {
		tr, err = apps.QuickTrace(ctx, "RM2D")
	} else {
		tr, err = apps.PaperTrace(ctx, "RM2D")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	m := sim.DefaultMachine()
	cls := core.NewClassifier(core.DefaultPartitionCost)
	fmt.Println("RM2D classification-space trajectory (continuous, absolute):")
	fmt.Printf("%6s %8s %8s %8s %8s %10s %8s\n",
		"step", "dimI", "dimII", "dimIII", "sizeNrm", "points", "levels")
	var maxMig core.Sample
	for _, snap := range tr.Snapshots {
		s := cls.Classify(snap.H, m.TimeSlot(snap.H, *procs))
		if s.DimIII > maxMig.DimIII {
			maxMig = s
		}
		fmt.Printf("%6d %8.3f %8.3f %8.3f %8.3f %10d %8d\n",
			snap.Step, s.DimI, s.DimII, s.DimIII, s.SizeNorm, s.Points, len(snap.H.Levels))
	}
	fmt.Printf("\npeak migration pressure: beta_m=%.3f at step %d "+
		"(the hierarchy reorganized most there)\n", maxMig.DimIII, maxMig.Step)
}
