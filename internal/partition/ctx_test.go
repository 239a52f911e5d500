package partition

import (
	"context"
	"errors"
	"testing"
	"time"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/sfc"
)

// countdownCtx is a deterministic cancellation harness: Err() returns
// nil for the first n polls and context.Canceled afterwards. Because
// the partitioners observe cancellation exclusively through Err()
// polls, sweeping n over [0, total] exercises every cancellation point
// a real mid-flight cancel could hit — without goroutines or timing.
// Done() is inherited from Background (never ready), which is valid
// for a context that is "cancelled" only through Err.
type countdownCtx struct {
	context.Context
	remaining int
	polls     int
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: n}
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.polls > c.remaining {
		return context.Canceled
	}
	return nil
}

// pollsOf counts how many times a full cold-cache Partition run polls
// the context.
func pollsOf(t *testing.T, mk func() Partitioner, h *grid.Hierarchy, np int) int {
	t.Helper()
	flushChainCaches()
	ctx := newCountdownCtx(1 << 30)
	if _, err := mk().Partition(ctx, h, np); err != nil {
		t.Fatal(err)
	}
	if ctx.polls == 0 {
		t.Fatal("partitioner never polled its context")
	}
	return ctx.polls
}

// ctxPartitioners returns fresh-instance constructors for every
// partitioner implementation, including the stateful wrapper.
func ctxPartitioners() map[string]func() Partitioner {
	return map[string]func() Partitioner{
		"domain":  func() Partitioner { return NewDomainSFC() },
		"patch":   func() Partitioner { return NewPatchBased() },
		"hybrid":  func() Partitioner { return NewNatureFable() },
		"postmap": func() Partitioner { return NewPostMapped(NewDomainSFC()) },
		"relabel": func() Partitioner { return &relabelingPartitioner{inner: NewNatureFable()} },
	}
}

// TestPartitionCancelledNeverPartial is the property test of the
// cancellation contract: for every partitioner and every possible
// cancellation point, Partition returns either a complete validated
// Assignment (nil error) or (nil, context error) — never a partial
// result.
func TestPartitionCancelledNeverPartial(t *testing.T) {
	h := testHierarchy()
	const np = 8
	for name, mk := range ctxPartitioners() {
		t.Run(name, func(t *testing.T) {
			total := pollsOf(t, mk, h, np)
			for n := 0; n < total; n++ {
				// Each attempt runs against a cold memo: a warm unit-chain
				// cache legitimately needs fewer polls (and may complete
				// before the countdown fires), which would break the
				// poll-point sweep. Cold runs also prove a cancelled
				// build never stores a partial artifact for the next run.
				flushChainCaches()
				a, err := mk().Partition(newCountdownCtx(n), h, np)
				if err == nil {
					t.Fatalf("cancel at poll %d/%d: no error", n, total)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d: err = %v, want wrapped context.Canceled", n, err)
				}
				if a != nil {
					t.Fatalf("cancel at poll %d/%d returned a partial assignment (%d fragments)",
						n, total, len(a.Fragments))
				}
			}
			// And at exactly total polls the cold run completes validly.
			flushChainCaches()
			a, err := mk().Partition(newCountdownCtx(total), h, np)
			if err != nil {
				t.Fatalf("uncancelled run failed: %v", err)
			}
			if err := a.Validate(h); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionPreCancelled: an already-cancelled context fails before
// any work, for every implementation.
func TestPartitionPreCancelled(t *testing.T) {
	h := testHierarchy()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, mk := range ctxPartitioners() {
		a, err := mk().Partition(ctx, h, 8)
		if !errors.Is(err, context.Canceled) || a != nil {
			t.Errorf("%s: pre-cancelled Partition = (%v, %v), want (nil, Canceled)", name, a, err)
		}
	}
}

// TestPartitionDeadlineErrorKind: a deadline-expired context surfaces
// DeadlineExceeded (not Canceled), so servers can map 504 vs 499.
func TestPartitionDeadlineErrorKind(t *testing.T) {
	h := testHierarchy()
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := NewNatureFable().Partition(ctx, h, 8)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
}

// TestNatureFableBaseStopsAtDeadline: a 256x256 base at unit 1 makes
// the hue's merged cover a quadratic merge of 65520 boxes that takes
// seconds. The merge polls the deadline, so the call answers with
// DeadlineExceeded close to it, and the cancelled base build stores
// nothing.
func TestNatureFableBaseStopsAtDeadline(t *testing.T) {
	flushChainCaches()
	defer flushChainCaches()
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 256, 256), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(0, 0, 8, 8)}})
	nf := &NatureFable{Curve: sfc.Hilbert, AtomicUnit: 1, Groups: 4, FractionalBlocking: true}
	const timeout = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	a, err := nf.Partition(ctx, h, 4)
	elapsed := time.Since(start)
	if a != nil || !errors.Is(err, context.DeadlineExceeded) || elapsed > timeout+250*time.Millisecond {
		t.Fatalf("Partition = (%v, %v) after %v, want (nil, DeadlineExceeded) within %v of the deadline",
			a, err, elapsed, 250*time.Millisecond)
	}
	if n := nfBases.Len(); n != 0 {
		t.Fatalf("the cancelled base build stored %d bases", n)
	}
}

// TestNatureFableCheckerboardAnsweredByDeadline: a side-n base whose
// level 1 is a checkerboard of n²/8 boxes, each 2×2, makes the
// nature+fable base build quadratic in the box count three times over
// (the core regions' MakeDisjoint and merge, and the hue's
// subtraction). Each polls the call's context, so under a deadline T
// the cold call returns the deadline's error within T + max(50 ms,
// T/4), the bound of ROADMAP item 18(b). Side 256 (8192 boxes) ran for
// seconds before the polls; -short runs side 128 (2048 boxes).
func TestNatureFableCheckerboardAnsweredByDeadline(t *testing.T) {
	n := 256
	if testing.Short() {
		n = 128
	}
	h := grid.NewHierarchy(geom.NewBox2(0, 0, n, n), 2)
	var board geom.BoxList
	for i := 0; i < n/2; i++ {
		for j := 0; j < n/2; j++ {
			if (i+j)%2 == 0 {
				board = append(board, geom.NewBox2(2*i, 2*j, 2*i+2, 2*j+2))
			}
		}
	}
	h.Levels = append(h.Levels, grid.Level{Boxes: board})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	flushChainCaches()
	const timeout = 50 * time.Millisecond
	limit := timeout + max(50*time.Millisecond, timeout/4)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	a, err := NewNatureFable().Partition(ctx, h, 4)
	elapsed := time.Since(start)
	if a != nil || !errors.Is(err, context.DeadlineExceeded) || elapsed > limit {
		t.Fatalf("side %d, %d boxes: Partition = (%v, %v) after %v; want the deadline's error within %v", n, len(board), a != nil, err, elapsed, limit)
	}
	t.Logf("side %d, %d boxes: %v after %v", n, len(board), err, elapsed)
}
