package apps

import (
	"context"
	"errors"
	"strings"
	"testing"

	"samr/internal/trace"
)

func TestKernelLookup(t *testing.T) {
	for _, n := range Names {
		k, err := Kernel(n)
		if err != nil {
			t.Fatalf("Kernel(%s): %v", n, err)
		}
		if k.Name() != n {
			t.Errorf("Kernel(%s).Name() = %s", n, k.Name())
		}
	}
	if _, err := Kernel("NOPE"); err == nil {
		t.Error("unknown kernel should error")
	}
}

func TestPaperConfigMatchesPaper(t *testing.T) {
	cfg := PaperConfig()
	if cfg.MaxLevels != 5 {
		t.Errorf("MaxLevels = %d, want 5 (paper: 5 levels)", cfg.MaxLevels)
	}
	if cfg.RefRatio != 2 {
		t.Errorf("RefRatio = %d, want 2 (factor 2 refinement)", cfg.RefRatio)
	}
	if cfg.RegridEvery != 4 {
		t.Errorf("RegridEvery = %d, want 4 (regrid every 4 steps)", cfg.RegridEvery)
	}
	if cfg.Cluster.MinWidth != 2 {
		t.Errorf("MinWidth = %d, want 2 (granularity 2)", cfg.Cluster.MinWidth)
	}
	if PaperSteps != 100 {
		t.Errorf("PaperSteps = %d, want 100", PaperSteps)
	}
}

func TestQuickTraceAllApps(t *testing.T) {
	for _, n := range Names {
		n := n
		t.Run(n, func(t *testing.T) {
			t.Parallel()
			tr, err := QuickTrace(context.Background(), n)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 21 {
				t.Errorf("trace length = %d, want 21", tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if tr.App != n {
				t.Errorf("App = %s", tr.App)
			}
		})
	}
}

func TestQuickTraceCached(t *testing.T) {
	a, err := QuickTrace(context.Background(), "TP2D")
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuickTrace(context.Background(), "TP2D")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("QuickTrace should return the cached instance")
	}
}

func TestNormalize(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"BL2D", "BL2D"}, {"bl2d", "BL2D"}, {"Tp2d", "TP2D"}, {" rm2d ", "RM2D"}, {"sc2d", "SC2D"},
	} {
		got, err := Normalize(c.in)
		if err != nil || got != c.want {
			t.Errorf("Normalize(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "XY2D", "BL3D"} {
		if _, err := Normalize(bad); err == nil {
			t.Errorf("Normalize(%q) should fail", bad)
		} else if !strings.Contains(err.Error(), "RM2D, BL2D, SC2D, TP2D") {
			t.Errorf("Normalize(%q) error %q does not list valid kernels", bad, err)
		}
	}
}

// TestTraceCacheContract pins the trace cache's promises: a cached
// trace is returned whatever the ctx; an uncached trace under a dead
// ctx is the ctx's error and stores nothing; an unknown application is
// refused and stores nothing; and the paper and quick traces of one
// application never alias.
func TestTraceCacheContract(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	want, err := QuickTrace(context.Background(), "BL2D")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := QuickTrace(dead, "BL2D"); got != want || err != nil {
		t.Errorf("cached QuickTrace under a dead ctx = (%p, %v), want (%p, nil)", got, err, want)
	}

	if traces.Contains("paper/BL2D") {
		t.Fatal("paper/BL2D is cached before the test asks for it")
	}
	if got, err := PaperTrace(dead, "BL2D"); got != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("uncached PaperTrace under a dead ctx = (%p, %v), want (nil, %v)", got, err, context.Canceled)
	}
	if traces.Contains("paper/BL2D") {
		t.Error("a cancelled PaperTrace stored a trace")
	}

	for _, c := range []struct {
		get  func(context.Context, string) (*trace.Trace, error)
		name string
		key  string
	}{
		{QuickTrace, "NOPE", "quick/NOPE"},
		{PaperTrace, "quick/BL2D", "paper/quick/BL2D"},
	} {
		if got, err := c.get(context.Background(), c.name); got != nil || err == nil || !strings.Contains(err.Error(), "unknown application") {
			t.Errorf("trace of %q = (%p, %v), want an unknown-application error", c.name, got, err)
		}
		if traces.Contains(c.key) {
			t.Errorf("the refused %q was cached", c.name)
		}
	}
}
