package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"samr/internal/apps"
	"samr/internal/partition"
	"samr/internal/trace"
)

// result is what one experiment prints for one application.
type result interface {
	emit(w io.Writer, csv bool) error
}

// emit writes a figure as a text table, or as CSV.
func (f *Figure) emit(w io.Writer, csv bool) error {
	if csv {
		return f.WriteCSV(w)
	}
	f.Print(w)
	return nil
}

// emit writes a table as text in either format.
func (t *Table) emit(w io.Writer, _ bool) error {
	t.Print(w)
	return nil
}

// modelVsActual is one of Figures 4-7: both panels, under a header
// that names the paper's figure in table format.
type modelVsActual struct {
	fig string
	v   *Validation
}

func (m modelVsActual) emit(w io.Writer, csv bool) error {
	if !csv {
		fmt.Fprintf(w, "--- %s (paper Figure %s) ---\n", m.v.App, m.fig)
	}
	if err := m.v.Comm.emit(w, csv); err != nil {
		return err
	}
	return m.v.Mig.emit(w, csv)
}

// experiment is one entry of the menu: the applications it runs over,
// in order, and what it computes from one application's trace.
type experiment struct {
	name string
	apps []string
	run  func(ctx context.Context, tr *trace.Trace, procs int) (result, error)
	// standalone experiments run only by name, never as part of "all".
	standalone bool
}

// as adapts an experiment function to the menu's signature.
func as[R result](f func(context.Context, *trace.Trace, int) (R, error)) func(context.Context, *trace.Trace, int) (result, error) {
	return func(ctx context.Context, tr *trace.Trace, procs int) (result, error) { return f(ctx, tr, procs) }
}

// figure runs the model-vs-actual validation as the paper's Figure fig.
func figure(fig string) func(context.Context, *trace.Trace, int) (result, error) {
	return func(ctx context.Context, tr *trace.Trace, procs int) (result, error) {
		v, err := FigModelVsActual(ctx, tr, procs)
		return modelVsActual{fig, v}, err
	}
}

// sweep is ProcsSweep of the static hybrid. The sweep is a ladder
// view: procs widens the default ladder instead of replacing it.
func sweep(ctx context.Context, tr *trace.Trace, procs int) (*Table, error) {
	ladder := slices.Clone(DefaultProcsLadder)
	if !slices.Contains(ladder, procs) {
		ladder = append(ladder, procs)
		slices.Sort(ladder)
	}
	return ProcsSweep(ctx, tr, partition.NewNatureFable(), ladder)
}

var bl2d = []string{"BL2D"}

// menu is every experiment Run knows. The ones that are not standalone
// make up "all", in this order: its output is the byte-identity
// baseline that bench/golden pins, so a new experiment runs standalone
// instead of growing it.
var menu = []experiment{
	{name: "fig1", apps: bl2d, run: as(Fig1)},
	{name: "fig4", apps: []string{"RM2D"}, run: figure("4")},
	{name: "fig5", apps: bl2d, run: figure("5")},
	{name: "fig6", apps: []string{"SC2D"}, run: figure("6")},
	{name: "fig7", apps: []string{"TP2D"}, run: figure("7")},
	{name: "trajectory", apps: bl2d, run: as(ClassificationTrajectory)},
	{name: "ablationA", apps: apps.Names, run: as(AblationDenominator)},
	{name: "ablationB", apps: apps.Names, run: as(AblationPartitioners)},
	{name: "ablationC", apps: apps.Names, run: as(MetaVsStatic)},
	{name: "ablationD", apps: apps.Names, run: as(AblationAbsoluteImportance)},
	{name: "ablationE", apps: apps.Names, run: as(AblationPostMapping)},
	{name: "sweep", apps: bl2d, run: as(sweep), standalone: true},
	{name: "selections", apps: apps.Names, run: as(selections), standalone: true},
}

// Run writes the named experiment to w, or with name "all" every
// experiment of the paper set in turn. load returns an application's
// trace; it is called once per application an experiment runs over,
// just before that application's part is computed. Figures are
// written as CSV when csv is set; tables are text in either format.
func Run(ctx context.Context, name string, load func(app string) (*trace.Trace, error), procs int, csv bool, w io.Writer) error {
	if name == "all" {
		for _, e := range menu {
			if e.standalone {
				continue
			}
			if err := e.write(ctx, load, procs, csv, w); err != nil {
				return err
			}
		}
		return nil
	}
	names := make([]string, len(menu))
	for i, e := range menu {
		if e.name == name {
			return e.write(ctx, load, procs, csv, w)
		}
		names[i] = e.name
	}
	return fmt.Errorf("unknown experiment %q (have %s, all)", name, strings.Join(names, ", "))
}

func (e experiment) write(ctx context.Context, load func(app string) (*trace.Trace, error), procs int, csv bool, w io.Writer) error {
	for _, app := range e.apps {
		tr, err := load(app)
		if err != nil {
			return err
		}
		r, err := e.run(ctx, tr, procs)
		if err != nil {
			return err
		}
		if err := r.emit(w, csv); err != nil {
			return err
		}
	}
	return nil
}
