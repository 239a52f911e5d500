// Package experiments reproduces the paper's evaluation: every figure
// of section 5 (Figure 1 and Figures 4-7), the classification-space
// trajectory of Figure 3 (right), the Figure 2 meta-partitioner's
// per-step selections, and the repository's ablations A-E
// (ablations.go). Each experiment returns printable series/tables
// carrying exactly the quantities the paper plots, plus correlation
// statistics that make the paper's visual comparison reproducible as
// text. Run is the menu: it prints any one experiment, or the paper
// set, by name.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"samr/internal/core"
	"samr/internal/partition"
	"samr/internal/pool"
	"samr/internal/sim"
	"samr/internal/stats"
	"samr/internal/trace"
)

// Series is one named per-step data series.
type Series struct {
	Name   string
	Values []float64
}

// Figure is a printable experiment result: aligned per-step series plus
// free-form notes (correlations, lags, periods).
type Figure struct {
	ID    string
	Title string
	Steps []int
	Data  []Series
	Notes []string
}

// Print writes the figure as an aligned text table.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "%6s", "step")
	for _, s := range f.Data {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)
	for i, st := range f.Steps {
		fmt.Fprintf(w, "%6d", st)
		for _, s := range f.Data {
			if i < len(s.Values) {
				fmt.Fprintf(w, " %14.6f", s.Values[i])
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// WriteCSV writes the figure as CSV (step column plus one column per
// series; notes become trailing '#' comment lines), ready for any
// plotting tool to regenerate the paper's figures graphically.
func (f *Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 1+len(f.Data))
	header[0] = "step"
	for i, s := range f.Data {
		header[i+1] = s.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, st := range f.Steps {
		rec := make([]string, 1+len(f.Data))
		rec[0] = strconv.Itoa(st)
		for j, s := range f.Data {
			if i < len(s.Values) {
				rec[j+1] = strconv.FormatFloat(s.Values[i], 'g', 10, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Table is a printable rows-and-columns result for the comparison
// ablations.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Print writes the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	row := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// DefaultProcs is the processor count of the validation experiments.
const DefaultProcs = 16

// staticPartitioner returns the paper's statically configured
// Nature+Fable ("static 'default' values ... a static 'neutral' setting
// so that behavior patterns in the applications are clearly visible").
func staticPartitioner() partition.Partitioner { return partition.NewNatureFable() }

// Fig1 reproduces Figure 1: the dynamic behaviour of BL2D under a
// single static partitioner — load imbalance and communication amount
// as functions of time.
func Fig1(ctx context.Context, tr *trace.Trace, nprocs int) (*Figure, error) {
	m := sim.DefaultMachine()
	res, err := sim.SimulateTrace(ctx, tr, staticPartitioner(), nprocs, m)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "fig1",
		Title: fmt.Sprintf("%s dynamic behaviour, static %s, %d procs", tr.App, res.PartitionerName, nprocs),
	}
	var imb, comm Series
	imb.Name = "imbalance_pct"
	comm.Name = "rel_comm"
	for _, s := range res.Steps {
		f.Steps = append(f.Steps, s.Step)
		imb.Values = append(imb.Values, s.Imbalance)
		comm.Values = append(comm.Values, s.RelativeComm)
	}
	f.Data = []Series{imb, comm}
	f.Notes = append(f.Notes,
		fmt.Sprintf("imbalance: %s", stats.Summarize(imb.Values)),
		fmt.Sprintf("rel_comm:  %s", stats.Summarize(comm.Values)),
		fmt.Sprintf("imbalance oscillation period: %d steps", stats.DominantPeriod(imb.Values, 30)),
		fmt.Sprintf("rel_comm  oscillation period: %d steps", stats.DominantPeriod(comm.Values, 30)),
	)
	return f, nil
}

// Validation is the Figures 4-7 output for one application: the left
// panel (actual relative communication vs beta_c) and the right panel
// (actual relative data migration vs beta_m), plus the agreement
// statistics.
type Validation struct {
	App      string
	Comm     *Figure
	Mig      *Figure
	CommCorr float64
	MigCorr  float64
	// MigLag is the lag (model leading measurement positive) that
	// maximizes the migration correlation; the paper observes beta_m
	// "peaks one time-step before the relative data migration
	// occasionally".
	MigLag        int
	MigCorrAtLag  float64
	CommAggressor float64 // fraction of steps with beta_c >= measured
	MigCautious   float64 // fraction of steps with beta_m <= measured
}

// FigModelVsActual reproduces one of Figures 4-7: it runs the model
// (penalties from the unpartitioned trace) and the simulator (actual
// metrics under the static partitioner) and pairs the series. The two
// sides are independent until the pairing, so they run concurrently.
func FigModelVsActual(ctx context.Context, tr *trace.Trace, nprocs int) (*Validation, error) {
	var res *sim.Result
	var samples []core.Sample
	err := pool.RunCtx(ctx,
		func() error {
			var err error
			res, err = sim.SimulateTrace(ctx, tr, staticPartitioner(), nprocs, sim.DefaultMachine())
			return err
		},
		func() error {
			// Model side: ab initio penalties over the raw trace.
			var err error
			samples, err = classifyTrace(ctx, tr, nprocs)
			return err
		},
	)
	if err != nil {
		return nil, err
	}

	var betaC, betaM, actC, actM []float64
	var steps []int
	for i, snap := range tr.Snapshots {
		if i == 0 {
			continue // no previous state: neither beta_m nor migration
		}
		s := samples[i]
		steps = append(steps, snap.Step)
		betaC = append(betaC, s.BetaC)
		betaM = append(betaM, s.BetaM)
		actC = append(actC, res.Steps[i].RelativeComm)
		actM = append(actM, res.Steps[i].RelativeMigration)
	}

	v := &Validation{App: tr.App}
	v.Comm = &Figure{
		ID:    "comm",
		Title: fmt.Sprintf("%s: communication vs beta_c (%d procs)", tr.App, nprocs),
		Steps: steps,
		Data: []Series{
			{Name: "rel_comm", Values: actC},
			{Name: "beta_c", Values: betaC},
		},
	}
	v.Mig = &Figure{
		ID:    "mig",
		Title: fmt.Sprintf("%s: data migration vs beta_m (%d procs)", tr.App, nprocs),
		Steps: steps,
		Data: []Series{
			{Name: "rel_migration", Values: actM},
			{Name: "beta_m", Values: betaM},
		},
	}
	v.CommCorr = stats.Pearson(betaC, actC)
	v.MigCorr = stats.Pearson(betaM, actM)
	v.MigLag, v.MigCorrAtLag = stats.BestLag(betaM, actM, 3)
	var agg, caut int
	for i := range betaC {
		if betaC[i] >= actC[i] {
			agg++
		}
		if betaM[i] <= actM[i] {
			caut++
		}
	}
	if n := len(betaC); n > 0 {
		v.CommAggressor = float64(agg) / float64(n)
		v.MigCautious = float64(caut) / float64(n)
	}
	v.Comm.Notes = append(v.Comm.Notes,
		fmt.Sprintf("pearson(beta_c, rel_comm) = %.3f", v.CommCorr),
		fmt.Sprintf("beta_c >= measured on %.0f%% of steps (worst-case/aggressive by design)", 100*v.CommAggressor),
		fmt.Sprintf("rel_comm period %d, beta_c period %d",
			stats.DominantPeriod(actC, 30), stats.DominantPeriod(betaC, 30)),
	)
	v.Mig.Notes = append(v.Mig.Notes,
		fmt.Sprintf("pearson(beta_m, rel_migration) = %.3f", v.MigCorr),
		fmt.Sprintf("best lag %d (model leads positive): corr %.3f", v.MigLag, v.MigCorrAtLag),
		fmt.Sprintf("beta_m <= measured on %.0f%% of steps (cautious amplitude)", 100*v.MigCautious),
		fmt.Sprintf("rel_migration period %d, beta_m period %d",
			stats.DominantPeriod(actM, 30), stats.DominantPeriod(betaM, 30)),
	)
	return v, nil
}

// classifyTrace classifies the trace's snapshots in order, each on the
// default machine's time slot at nprocs, polling ctx before each. The
// classifier carries running state (previous hierarchy, size
// normalization), so it consumes the snapshots in order.
func classifyTrace(ctx context.Context, tr *trace.Trace, nprocs int) ([]core.Sample, error) {
	m := sim.DefaultMachine()
	cls := core.NewClassifier(core.DefaultPartitionCost)
	samples := make([]core.Sample, len(tr.Snapshots))
	for i, snap := range tr.Snapshots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		samples[i] = cls.Classify(snap.H, m.TimeSlot(snap.H, nprocs))
	}
	return samples, nil
}

// ClassificationTrajectory demonstrates Figure 3 (right): the locus of
// classification points as the simulation evolves.
func ClassificationTrajectory(ctx context.Context, tr *trace.Trace, nprocs int) (*Figure, error) {
	samples, err := classifyTrace(ctx, tr, nprocs)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "trajectory",
		Title: fmt.Sprintf("%s: classification-space trajectory", tr.App),
	}
	var d1, d2, d3, size Series
	d1.Name, d2.Name, d3.Name, size.Name = "dimI", "dimII", "dimIII", "size_norm"
	for i, snap := range tr.Snapshots {
		s := samples[i]
		f.Steps = append(f.Steps, snap.Step)
		d1.Values = append(d1.Values, s.DimI)
		d2.Values = append(d2.Values, s.DimII)
		d3.Values = append(d3.Values, s.DimIII)
		size.Values = append(size.Values, s.SizeNorm)
	}
	f.Data = []Series{d1, d2, d3, size}
	f.Notes = append(f.Notes,
		"continuous absolute coordinates; contrast with the discrete octant approach",
		fmt.Sprintf("dimIII: %s", stats.Summarize(d3.Values)),
	)
	return f, nil
}

// selections runs the meta-partitioner of Figure 2 over the trace: one
// row per step, with the classification sample behind the choice and
// the partitioner selected after hysteresis. The notes count the steps
// each partitioner of the stable was selected on and name the step of
// the largest dimIII.
func selections(ctx context.Context, tr *trace.Trace, nprocs int) (*Table, error) {
	m := sim.DefaultMachine()
	meta := core.NewMetaPartitioner(core.DefaultPartitionCost)
	t := &Table{
		ID:      "selections",
		Title:   fmt.Sprintf("%s: meta-partitioner selection per step, %d procs", tr.App, nprocs),
		Columns: []string{"step", "dimI", "dimII", "dimIII", "size_norm", "points", "levels", "selected"},
	}
	selected := map[string]int{}
	var peak core.Sample
	peakStep := 0
	for i, snap := range tr.Snapshots {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p := meta.Select(snap.H, m.TimeSlot(snap.H, nprocs))
		s, _ := meta.LastSample()
		selected[p.Name()]++
		if i == 0 || s.DimIII > peak.DimIII {
			peak, peakStep = s, snap.Step
		}
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(snap.Step),
			fmt.Sprintf("%.3f", s.DimI),
			fmt.Sprintf("%.3f", s.DimII),
			fmt.Sprintf("%.3f", s.DimIII),
			fmt.Sprintf("%.3f", s.SizeNorm),
			strconv.FormatInt(s.Points, 10),
			strconv.Itoa(len(snap.H.Levels)),
			p.Name(),
		})
	}
	for _, p := range meta.Stable() {
		t.Notes = append(t.Notes, fmt.Sprintf("%s selected on %d of %d steps", p.Name(), selected[p.Name()], len(tr.Snapshots)))
	}
	if len(tr.Snapshots) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("largest dimIII %.3f at step %d", peak.DimIII, peakStep))
	}
	return t, nil
}
