package apps

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"samr/internal/amr"
	"samr/internal/field"
	"samr/internal/solver"
	"samr/internal/trace"
)

// goldenTraceHashes are sha256 hex digests of the serialized trace
// (trace.Write bytes) of each application at the golden config — the
// quick scale: 16x16 base, 3 levels, 20 coarse steps, paper clustering.
// They were captured from the pre-row-streaming sequential substrate
// (PR 3) via `samrtrace -app <A> -base 16 -levels 3 -steps 20`, and
// pin the acceptance contract of the execution-substrate rewrite: the
// row-streamed kernels and the parallel driver must reproduce the
// reference hierarchy evolution bit for bit at any worker count.
var goldenTraceHashes = map[string]string{
	"TP2D": "50b8314f2c6750eb88b4d2a30f299f5d4b97076e58c015e4ff0613a2c557286a",
	"SC2D": "512704780a34fc64f6ca00c6fe59134a1bdce8e3768e08d3d0c36f5dafd5d0e5",
	"BL2D": "bbfb657df388a558f973fadf60b8d80a2aee9a6ce5176145816049369a3af8ed",
	"RM2D": "3d9f19c443268547d9857e9a4c0d1246a194b5bb78a62b308fb281d8c46f2a5b",
}

// goldenConfig is the fixed configuration the reference hashes were
// captured at.
func goldenConfig(workers int) amr.Config {
	cfg := PaperConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 3
	cfg.Workers = workers
	return cfg
}

const goldenSteps = 20

// traceHash serializes tr and returns the hex sha256 of the bytes.
func traceHash(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenTraceEquivalence regenerates every application's golden
// trace with the row-streamed substrate at several worker counts and
// asserts the serialized bytes match the retained reference exactly.
// Run with -race to also certify the per-patch fan-out data-race free.
func TestGoldenTraceEquivalence(t *testing.T) {
	for _, app := range Names {
		want, ok := goldenTraceHashes[app]
		if !ok {
			t.Fatalf("no golden hash for %s", app)
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", app, workers), func(t *testing.T) {
				tr, err := Generate(context.Background(), app, goldenConfig(workers), goldenSteps)
				if err != nil {
					t.Fatal(err)
				}
				if got := traceHash(t, tr); got != want {
					t.Errorf("%s at %d workers: trace hash %s, want reference %s",
						app, workers, got, want)
				}
			})
		}
	}
}

// TestGoldenTraceCancellation exercises the driver's cancellation
// contract at the golden config: a pre-cancelled context must abort
// generation with the context's error and no partial trace.
func TestGoldenTraceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := Generate(ctx, "TP2D", goldenConfig(2), goldenSteps)
	if err == nil {
		t.Fatal("cancelled generation returned nil error")
	}
	if tr != nil {
		t.Fatalf("cancelled generation returned a trace with %d snapshots", tr.Len())
	}

	// The initial hierarchy is generation work too: a context that is
	// already cancelled must not pay for it.
	k := &initCounter{Kernel: solver.NewTransport()}
	if _, err := amr.Run(ctx, k, goldenConfig(2), goldenSteps); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if n := k.inits.Load(); n != 0 {
		t.Errorf("cancelled run initialised %d patches before looking at its context", n)
	}
}

// initCounter counts the patches the driver asks its kernel to
// initialise.
type initCounter struct {
	solver.Kernel
	inits atomic.Int64
}

func (k *initCounter) Init(p *field.Patch, g solver.Geometry) {
	k.inits.Add(1)
	k.Kernel.Init(p, g)
}

// BenchmarkGenerate times generating each application's trace, with
// its allocations: at the quick scale (QuickTrace's configuration) and
// at the paper configuration for 16 coarse steps (the bench module's
// paper-16-steps scale), generated afresh every iteration.
func BenchmarkGenerate(b *testing.B) {
	scales := []struct {
		name  string
		cfg   amr.Config
		steps int
	}{
		{"quick", goldenConfig(0), goldenSteps},
		{"paper-16-steps", PaperConfig(), 16},
	}
	for _, sc := range scales {
		for _, app := range Names {
			b.Run(sc.name+"/"+app, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Generate(context.Background(), app, sc.cfg, sc.steps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestGenerateLeavesNoHelperRunning: the pool's helpers linger for a
// fraction of a millisecond after a fan-out, and no longer, so once a
// generation returns — complete, or cancelled in the middle of a step —
// the process is back to the goroutines it had before it within a few
// lingers, and nothing spins while a caller times something else.
func TestGenerateLeavesNoHelperRunning(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	// settle waits for the goroutine count to fall to base and logs how
	// long that took (about a linger, 200 µs, on an idle machine). The
	// bound it fails at only leaves room for a helper the OS has not
	// scheduled since its linger ran out.
	settle := func(what string, base int) {
		t.Helper()
		start := time.Now()
		for runtime.NumGoroutine() > base {
			if time.Since(start) > 500*time.Millisecond {
				t.Fatalf("%s: %d goroutines 500 ms after it returned, %d before it started", what, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
		t.Logf("%s: back to %d goroutines after %v", what, base, time.Since(start))
	}
	time.Sleep(10 * time.Millisecond) // let earlier tests' helpers exit
	base := runtime.NumGoroutine()
	if _, err := Generate(context.Background(), "RM2D", goldenConfig(2), goldenSteps); err != nil {
		t.Fatal(err)
	}
	settle("complete generation", base)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k := &cancelAfter{Kernel: solver.NewEuler(), steps: 200, cancel: cancel}
	if _, err := amr.Run(ctx, k, goldenConfig(2), goldenSteps); !errors.Is(err, context.Canceled) {
		t.Fatalf("generation cancelled after %d kernel steps returned %v, want context.Canceled", k.steps, err)
	}
	settle("cancelled generation", base)
}

// cancelAfter cancels its context from inside the kernel step that
// brings the count of steps taken to steps.
type cancelAfter struct {
	solver.Kernel
	taken  atomic.Int64
	steps  int64
	cancel context.CancelFunc
}

func (k *cancelAfter) Step(p *field.Patch, t, dt float64, g solver.Geometry) {
	if k.taken.Add(1) == k.steps {
		k.cancel()
	}
	k.Kernel.Step(p, t, dt, g)
}
