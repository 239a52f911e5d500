package experiments

import (
	"context"
	"fmt"

	"samr/internal/core"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/pool"
	"samr/internal/sfc"
	"samr/internal/sim"
	"samr/internal/stats"
	"samr/internal/trace"
)

// AblationDenominator (Ablation A) compares the three candidate
// denominators of beta_m (section 4.4 discusses why |H_t| is chosen)
// against the measured relative migration.
func AblationDenominator(ctx context.Context, tr *trace.Trace, nprocs int) (*Figure, error) {
	m := sim.DefaultMachine()
	res, err := sim.SimulateTrace(ctx, tr, staticPartitioner(), nprocs, m)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "ablationA",
		Title: fmt.Sprintf("%s: beta_m denominator choices vs measured migration", tr.App),
	}
	var cur, prev, maxd, act Series
	cur.Name, prev.Name, maxd.Name, act.Name = "denom_Ht", "denom_Ht-1", "denom_max", "rel_migration"
	for i := 1; i < len(tr.Snapshots); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, b := tr.Snapshots[i-1].H, tr.Snapshots[i].H
		f.Steps = append(f.Steps, tr.Snapshots[i].Step)
		cur.Values = append(cur.Values, core.MigrationPenaltyWith(a, b, core.DenomCurrent))
		prev.Values = append(prev.Values, core.MigrationPenaltyWith(a, b, core.DenomPrevious))
		maxd.Values = append(maxd.Values, core.MigrationPenaltyWith(a, b, core.DenomMax))
		act.Values = append(act.Values, res.Steps[i].RelativeMigration)
	}
	f.Data = []Series{act, cur, prev, maxd}
	f.Notes = append(f.Notes,
		fmt.Sprintf("pearson vs measured: Ht=%.3f Ht-1=%.3f max=%.3f",
			stats.Pearson(cur.Values, act.Values),
			stats.Pearson(prev.Values, act.Values),
			stats.Pearson(maxd.Values, act.Values)),
	)
	return f, nil
}

// partitionerFamilies is the partitioner set of Ablation B: one
// representative per family of section 2.2 plus curve variants.
func partitionerFamilies() []partition.Partitioner {
	return []partition.Partitioner{
		&partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2},
		&partition.DomainSFC{Curve: sfc.Morton, UnitSize: 2},
		&partition.DomainSFC{Curve: sfc.RowMajor, UnitSize: 2},
		partition.NewPatchBased(),
		partition.NewNatureFable(),
		&partition.NatureFable{Curve: sfc.Hilbert, AtomicUnit: 8, Groups: 2, FractionalBlocking: false},
	}
}

// AblationPartitioners (Ablation B) measures every partitioner family
// on the same trace: mean imbalance, mean relative communication, mean
// relative migration, inter-level communication share, and total
// estimated execution time. The per-family simulations are independent,
// so they fan out across the worker pool; each goroutine writes its row
// by index, keeping the table order (and content) identical to a
// sequential run.
func AblationPartitioners(ctx context.Context, tr *trace.Trace, nprocs int) (*Table, error) {
	m := sim.DefaultMachine()
	t := &Table{
		ID:      "ablationB",
		Title:   fmt.Sprintf("%s: partitioner families, %d procs", tr.App, nprocs),
		Columns: []string{"partitioner", "mean_imb_pct", "mean_rel_comm", "mean_rel_mig", "interlevel_share", "est_time_s"},
	}
	ps := partitionerFamilies()
	t.Rows = make([][]string, len(ps))
	err := pool.MapCtx(ctx, pool.Workers(), len(ps), func(i int) error {
		p := ps[i]
		res, err := sim.SimulateTrace(ctx, tr, p, nprocs, m)
		if err != nil {
			return err
		}
		var comm, mig []float64
		var inter, total int64
		for _, s := range res.Steps {
			comm = append(comm, s.RelativeComm)
			mig = append(mig, s.RelativeMigration)
			inter += s.InterLevelComm
			total += s.TotalComm()
		}
		share := 0.0
		if total > 0 {
			share = float64(inter) / float64(total)
		}
		t.Rows[i] = []string{
			p.Name(),
			fmt.Sprintf("%.1f", res.MeanImbalance()),
			fmt.Sprintf("%.4f", stats.Mean(comm)),
			fmt.Sprintf("%.4f", stats.Mean(mig)),
			fmt.Sprintf("%.3f", share),
			fmt.Sprintf("%.4f", res.TotalEstTime()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"domain-based rows must show interlevel_share = 0 (section 2.2)",
		"patch-based rows trade inter-level communication for balance",
	)
	return t, nil
}

// MetaVsStatic (Ablation C) compares the meta-partitioner's dynamic
// per-step selection against every static choice from its own stable,
// reporting total estimated execution time — the ArMADA-style proof
// that adapting to dynamic behaviour reduces execution time.
func MetaVsStatic(ctx context.Context, tr *trace.Trace, nprocs int) (*Table, error) {
	m := sim.DefaultMachine()
	t := &Table{
		ID:      "ablationC",
		Title:   fmt.Sprintf("%s: meta-partitioner vs static choices, %d procs", tr.App, nprocs),
		Columns: []string{"strategy", "est_time_s", "mean_imb_pct", "mean_rel_comm", "mean_rel_mig"},
	}
	meta := core.NewMetaPartitioner(core.DefaultPartitionCost)
	row := func(name string, res *sim.Result) []string {
		var comm, mig []float64
		for _, s := range res.Steps {
			comm = append(comm, s.RelativeComm)
			mig = append(mig, s.RelativeMigration)
		}
		return []string{
			name,
			fmt.Sprintf("%.4f", res.TotalEstTime()),
			fmt.Sprintf("%.1f", res.MeanImbalance()),
			fmt.Sprintf("%.4f", stats.Mean(comm)),
			fmt.Sprintf("%.4f", stats.Mean(mig)),
		}
	}

	// The dynamic run (the meta-partitioner selects per step) and one
	// run per static choice from its stable fan out together.
	stable := meta.Stable()
	t.Rows = make([][]string, 1+len(stable))
	err := pool.MapCtx(ctx, pool.Workers(), len(t.Rows), func(i int) error {
		name, choose := "meta-partitioner(dynamic)", func(step int, h *grid.Hierarchy) partition.Partitioner {
			return meta.Select(h, m.TimeSlot(h, nprocs))
		}
		if i > 0 {
			p := stable[i-1]
			name, choose = "static:"+p.Name(), func(int, *grid.Hierarchy) partition.Partitioner { return p }
		}
		res, err := sim.SimulateTraceSelect(ctx, tr, choose, nprocs, m)
		if err != nil {
			return err
		}
		t.Rows[i] = row(name, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"expected shape: dynamic <= best static on average, << worst static",
	)
	return t, nil
}

// AblationPostMapping (Ablation E) measures the migration remedy the
// paper names for dimension III: wrapping a partitioner with the
// post-mapping technique (label remap maximizing overlap with the
// previous assignment). Load balance and communication are unchanged
// by construction; migration and execution time should drop.
func AblationPostMapping(ctx context.Context, tr *trace.Trace, nprocs int) (*Table, error) {
	m := sim.DefaultMachine()
	t := &Table{
		ID:      "ablationE",
		Title:   fmt.Sprintf("%s: post-mapping migration remedy, %d procs", tr.App, nprocs),
		Columns: []string{"partitioner", "mean_rel_mig", "mean_imb_pct", "est_time_s"},
	}
	pairs := []partition.Partitioner{
		partition.NewNatureFable(),
		partition.NewPostMapped(partition.NewNatureFable()),
		&partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2},
		partition.NewPostMapped(&partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2}),
	}
	t.Rows = make([][]string, len(pairs))
	err := pool.MapCtx(ctx, pool.Workers(), len(pairs), func(i int) error {
		p := pairs[i]
		res, err := sim.SimulateTrace(ctx, tr, p, nprocs, m)
		if err != nil {
			return err
		}
		var mig []float64
		for _, s := range res.Steps {
			mig = append(mig, s.RelativeMigration)
		}
		t.Rows[i] = []string{
			p.Name(),
			fmt.Sprintf("%.4f", stats.Mean(mig)),
			fmt.Sprintf("%.1f", res.MeanImbalance()),
			fmt.Sprintf("%.4f", res.TotalEstTime()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"postmap(...) rows must not exceed their base row's migration (same decomposition, aligned labels)",
	)
	return t, nil
}

// AblationAbsoluteImportance (Ablation D) contrasts the raw mean
// penalty with the size-weighted Need of section 4.2/4.3: large
// penalties at grid-size minima are discounted, at peaks they are not.
func AblationAbsoluteImportance(ctx context.Context, tr *trace.Trace, nprocs int) (*Figure, error) {
	samples, err := classifyTrace(ctx, tr, nprocs)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "ablationD",
		Title: fmt.Sprintf("%s: absolute importance of relative metrics", tr.App),
	}
	var raw, need, size Series
	raw.Name, need.Name, size.Name = "mean_penalty", "need_weighted", "size_norm"
	for i, snap := range tr.Snapshots {
		s := samples[i]
		f.Steps = append(f.Steps, snap.Step)
		raw.Values = append(raw.Values, (s.BetaL+s.BetaC+s.BetaM)/3)
		need.Values = append(need.Values, s.Need)
		size.Values = append(size.Values, s.SizeNorm)
	}
	f.Data = []Series{raw, need, size}
	f.Notes = append(f.Notes,
		"need = mean_penalty * size_norm: optimization urgency discounted at grid-size minima (section 4.2)",
	)
	return f, nil
}
