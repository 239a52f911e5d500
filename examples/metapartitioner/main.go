// Meta-partitioner example: fully dynamic PACs. For each of the four
// paper applications, the meta-partitioner classifies every snapshot
// and selects a partitioner per step; the execution simulator compares
// the resulting estimated execution time against every static choice —
// the motivation of the whole research line ("with a dynamic selection
// of P ... the total execution time could have been reduced",
// Figure 1).
//
//	go run ./examples/metapartitioner -quick
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/experiments"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sim"
	"samr/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-scale run")
	procs := flag.Int("procs", 16, "processors to simulate")
	flag.Parse()
	ctx := context.Background()

	for _, app := range apps.Names {
		var tr *trace.Trace
		var err error
		if *quick {
			tr, err = apps.QuickTrace(ctx, app)
		} else {
			tr, err = apps.PaperTrace(ctx, app)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tb, err := experiments.MetaVsStatic(ctx, tr, *procs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tb.Print(os.Stdout)

		// Show which partitioners the dynamic run actually used.
		m := sim.DefaultMachine()
		meta := core.NewMetaPartitioner(core.DefaultPartitionCost)
		usage := map[string]int{}
		if _, err := sim.SimulateTraceSelect(ctx, tr, func(step int, h *grid.Hierarchy) partition.Partitioner {
			p := meta.Select(h, m.TimeSlot(h, *procs))
			usage[p.Name()]++
			return p
		}, *procs, m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("# dynamic selections for %s: %v\n\n", app, usage)
	}
}
