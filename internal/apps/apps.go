// Package apps wires the four solver kernels to the AMR driver with the
// paper's experimental configuration (section 5.1.1): 5 levels of
// factor-2 refinement in space and time, regridding every 4 steps on
// each level, 100 coarse time steps, minimum block dimension
// (granularity) 2. It also caches generated traces per process, in a
// memo.Cache, so the experiment harness and benchmarks do not pay trace
// generation repeatedly: a cached trace is returned at once, and
// concurrent callers of one uncached trace share one generation.
package apps

import (
	"context"
	"fmt"
	"strings"

	"samr/internal/amr"
	"samr/internal/memo"
	"samr/internal/solver"
	"samr/internal/trace"
)

// Names lists the four applications in the paper's presentation order
// of the result figures (Figures 4-7).
var Names = []string{"RM2D", "BL2D", "SC2D", "TP2D"}

// Normalize maps a case-insensitive application name to its canonical
// upper-case form, or reports an error naming the valid kernels. CLIs
// use it to validate -app flags up front instead of failing deep inside
// trace generation.
func Normalize(name string) (string, error) {
	up := strings.ToUpper(strings.TrimSpace(name))
	for _, n := range Names {
		if up == n {
			return n, nil
		}
	}
	return "", fmt.Errorf("apps: unknown application %q (valid kernels: %s)", name, strings.Join(Names, ", "))
}

// Kernel returns the named application kernel.
func Kernel(name string) (solver.Kernel, error) {
	switch name {
	case "TP2D":
		return solver.NewTransport(), nil
	case "SC2D":
		return solver.NewScalarWave(), nil
	case "BL2D":
		return solver.NewBuckleyLeverett(), nil
	case "RM2D":
		return solver.NewEuler(), nil
	}
	return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names)
}

// PaperConfig is the driver configuration of the paper's validation
// runs.
func PaperConfig() amr.Config {
	cfg := amr.DefaultConfig()
	cfg.BaseSize = 32
	cfg.MaxLevels = 5
	cfg.RefRatio = 2
	cfg.RegridEvery = 4
	cfg.Cluster.MinWidth = 2
	return cfg
}

// PaperSteps is the number of coarse time steps of the paper's runs.
const PaperSteps = 100

// Generate runs the named application for steps coarse steps and
// returns its trace. The run is bounded by ctx: a cancelled generation
// aborts between patch work units and returns a nil trace with the
// context's error.
func Generate(ctx context.Context, name string, cfg amr.Config, steps int) (*trace.Trace, error) {
	k, err := Kernel(name)
	if err != nil {
		return nil, err
	}
	return amr.Run(ctx, k, cfg, steps)
}

// traces holds every generated trace under its scale and name: two
// scales of four applications, and nothing else is ever stored (a
// failed generation, including an unknown name's, stores nothing).
var traces = memo.New[string, *trace.Trace](2 * len(Names))

// PaperTrace returns the named application's paper-configuration trace,
// generating it on first use and caching it for the life of the
// process. The returned trace is shared: callers must not mutate it. A
// cached trace is returned whatever ctx; otherwise ctx bounds the call.
// A caller that finds another caller generating the same trace waits
// for that run, or returns ctx's error once ctx ends; a cancelled
// generation caches nothing. Different applications never wait on each
// other.
func PaperTrace(ctx context.Context, name string) (*trace.Trace, error) {
	return cachedTrace(ctx, "paper/", name, PaperConfig(), PaperSteps)
}

// QuickTrace returns a reduced-scale trace (16x16 base, 3 levels, 20
// steps) of the named application, cached like PaperTrace. Tests and
// examples use it to keep runtimes low.
func QuickTrace(ctx context.Context, name string) (*trace.Trace, error) {
	cfg := PaperConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 3
	return cachedTrace(ctx, "quick/", name, cfg, 20)
}

// cachedTrace is PaperTrace and QuickTrace: the trace of name at one
// scale, keyed by the scale's prefix.
func cachedTrace(ctx context.Context, scale, name string, cfg amr.Config, steps int) (*trace.Trace, error) {
	tr, _, err := traces.GetOrCompute(ctx, scale+name, func() (*trace.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return Generate(ctx, name, cfg, steps)
	})
	return tr, err
}
