package experiments

import (
	"context"
	"fmt"

	"samr/internal/partition"
	"samr/internal/pool"
	"samr/internal/sim"
	"samr/internal/stats"
	"samr/internal/trace"
)

// DefaultProcsLadder is the processor-count ladder of ProcsSweep:
// powers of two around the paper's 16-processor validation setup.
var DefaultProcsLadder = []int{4, 8, 16, 32, 64}

// ProcsSweep runs one partitioner over the same trace at every
// processor count of the ladder — the scaling view the paper's
// fixed-nprocs figures do not show. The sweep is the stress case the
// content-addressed memoization layer is built for: the SFC unit
// chains and hue/core separations depend only on (hierarchy content,
// curve, unit size), so the sweep opens one chain scope
// (partition.WithChainScope) that every rung's run shares: across the
// whole ladder they are computed once, and only the chain cuts,
// fragment generation, and evaluation run per nprocs. The scope goes
// with the sweep. The per-nprocs simulations are independent and fan
// out over the worker pool; each row is written by index, keeping the
// table identical to a sequential run.
func ProcsSweep(ctx context.Context, tr *trace.Trace, p partition.Partitioner, ladder []int) (*Table, error) {
	if len(ladder) == 0 {
		ladder = DefaultProcsLadder
	}
	m := sim.DefaultMachine()
	t := &Table{
		ID:      "sweep",
		Title:   fmt.Sprintf("%s: %s across processor counts", tr.App, p.Name()),
		Columns: []string{"nprocs", "est_time_s", "mean_imb_pct", "mean_rel_comm", "mean_rel_mig"},
	}
	t.Rows = make([][]string, len(ladder))
	ctx = partition.WithChainScope(ctx)
	err := pool.MapCtx(ctx, pool.Workers(), len(ladder), func(i int) error {
		res, err := sim.SimulateTrace(ctx, tr, p, ladder[i], m)
		if err != nil {
			return err
		}
		var comm, mig []float64
		for _, s := range res.Steps {
			comm = append(comm, s.RelativeComm)
			mig = append(mig, s.RelativeMigration)
		}
		t.Rows[i] = []string{
			fmt.Sprintf("%d", ladder[i]),
			fmt.Sprintf("%.4f", res.TotalEstTime()),
			fmt.Sprintf("%.1f", res.MeanImbalance()),
			fmt.Sprintf("%.4f", stats.Mean(comm)),
			fmt.Sprintf("%.4f", stats.Mean(mig)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"unit chains are content-addressed: decomposition work is shared across the whole ladder",
	)
	return t, nil
}
