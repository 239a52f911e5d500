package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachNestedCoversAllIndices(t *testing.T) {
	// Nested pools must stay correct (and deadlock-free) even when the
	// outer level exhausts the process-wide helper budget and the inner
	// calls degrade to inline execution.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const outer, inner = 8, 50
	var hits [outer * inner]int32
	err := MapCtx(context.Background(), Workers(), outer, func(i int) error {
		return MapCtx(context.Background(), Workers(), inner, func(j int) error {
			atomic.AddInt32(&hits[i*inner+j], 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("nested index %d ran %d times", i, h)
		}
	}
}

func TestMapCtxCoversAllIndices(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 500
		var hits [n]int32
		err := MapCtx(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestMapCtxStopsDispatchOnCancel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 10000
	var ran atomic.Int64
	err := MapCtx(ctx, 4, n, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Dispatch must stop well short of n: every worker stops within one
	// dispatch of observing the cancellation.
	if got := ran.Load(); got > 32 {
		t.Errorf("ran %d of %d indices after cancellation", got, n)
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := MapCtx(ctx, 4, 100, func(i int) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("MapCtx dispatched work on a dead context")
	}
}

func TestMapCtxSequentialErrorShortCircuits(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := MapCtx(context.Background(), 1, 10, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(ran) != 4 {
		t.Errorf("sequential path ran %v, want exactly [0 1 2 3]", ran)
	}
}

func TestMapCtxParallelReportsEarliestError(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	errA, errB := errors.New("a"), errors.New("b")
	// Indices 2 and 5 both fail; the reported error must be index 2's
	// whenever both ran, and one of the two regardless.
	err := MapCtx(context.Background(), 4, 6, func(i int) error {
		switch i {
		case 2:
			return errA
		case 5:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("err = %v, want a failing index's error", err)
	}
}

func TestRunCtx(t *testing.T) {
	var total atomic.Int64
	err := RunCtx(context.Background(),
		func() error { total.Add(1); return nil },
		func() error { total.Add(10); return nil },
		func() error { total.Add(100); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 111 {
		t.Errorf("RunCtx total = %d", total.Load())
	}
}

func TestRunCtxPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := RunCtx(context.Background(),
		func() error { return nil },
		func() error { return boom },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMapCtxEmpty(t *testing.T) {
	if err := MapCtx(context.Background(), 4, 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestClassOfDefaultsToInteractive(t *testing.T) {
	if got := ClassOf(context.Background()); got != Interactive {
		t.Fatalf("ClassOf(background) = %v, want Interactive", got)
	}
	ctx := WithClass(context.Background(), Batch)
	if got := ClassOf(ctx); got != Batch {
		t.Fatalf("ClassOf(WithClass(Batch)) = %v, want Batch", got)
	}
	// The class is inherited by derived contexts (how the simulator's
	// nested fan-outs pick up the request's class).
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	if got := ClassOf(ctx2); got != Batch {
		t.Fatalf("derived ctx lost the class: %v", got)
	}
}

// TestBatchCoverageIdenticalToForEach pins the satellite contract: a
// Batch-class MapCtx covers exactly the indices a plain loop covers —
// every index once — on success, at every worker width, even while
// interactive fan-outs run concurrently and steal the helper budget.
func TestBatchCoverageIdenticalToForEach(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	batchCtx := WithClass(context.Background(), Batch)
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 500
		var want, hits [n]int32
		for i := 0; i < n; i++ {
			want[i]++
		}
		err := MapCtx(batchCtx, workers, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if hits != want {
			t.Fatalf("workers=%d: coverage differs from a plain loop", workers)
		}
	}

	// Same coverage with a concurrent interactive stream competing for
	// the helper budget.
	stopInteractive := make(chan struct{})
	interactiveDone := make(chan struct{})
	go func() {
		defer close(interactiveDone)
		for {
			select {
			case <-stopInteractive:
				return
			default:
			}
			MapCtx(context.Background(), Workers(), 32, func(int) error { return nil }) //nolint:errcheck
		}
	}()
	const n = 2000
	var hits [n]int32
	if err := MapCtx(batchCtx, Workers(), n, func(i int) error {
		atomic.AddInt32(&hits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(stopInteractive)
	<-interactiveDone
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("contended batch: index %d ran %d times", i, h)
		}
	}
}

// TestBatchStarvationFreedom is the priority-mode property test: under
// a continuous stream of interactive fan-outs that permanently wants
// the whole helper budget, a Batch-class MapCtx must still complete
// (the calling goroutine never yields, so batch throughput degrades to
// at worst sequential — never to zero).
func TestBatchStarvationFreedom(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	stop := make(chan struct{})
	var interactiveRounds atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				MapCtx(context.Background(), Workers(), 64, func(int) error { //nolint:errcheck
					runtime.Gosched()
					return nil
				})
				interactiveRounds.Add(1)
			}
		}()
	}

	const n = 400
	var covered atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- MapCtx(WithClass(context.Background(), Batch), Workers(), n, func(i int) error {
			covered.Add(1)
			runtime.Gosched()
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("batch fan-out failed under interactive load: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("batch fan-out starved: %d/%d indices ran under interactive load", covered.Load(), n)
	}
	close(stop)
	wg.Wait()
	if covered.Load() != n {
		t.Fatalf("batch covered %d/%d indices", covered.Load(), n)
	}
	if interactiveRounds.Load() == 0 {
		t.Log("warning: interactive stream completed no rounds (contention check weak on this machine)")
	}
}

// TestBatchHelpersYieldToInteractive observes the mechanism itself:
// while an interactive fan-out is dispatching, a long-running batch
// fan-out's helper goroutines retire (its observed concurrency drops
// toward 1), and after the interactive work drains the batch caller
// re-admits helpers (concurrency recovers).
func TestBatchHelpersYieldToInteractive(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	var batchConcurrent, batchMax atomic.Int64
	observe := func() {
		cur := batchConcurrent.Add(1)
		for {
			max := batchMax.Load()
			if cur <= max || batchMax.CompareAndSwap(max, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		batchConcurrent.Add(-1)
	}

	// Phase 1: batch alone — helpers admitted, concurrency exceeds 1.
	if err := MapCtx(WithClass(context.Background(), Batch), Workers(), 200, func(int) error {
		observe()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if batchMax.Load() < 2 {
		t.Skipf("no helper parallelism observed even uncontended (budget exhausted by other tests); max=%d", batchMax.Load())
	}

	// Phase 2: batch with interactive permanently active — once the
	// pre-existing helpers retire, batch concurrency must fall to the
	// caller alone.
	interactiveCtxDone := make(chan struct{})
	interactiveUp := make(chan struct{})
	go func() {
		var once sync.Once
		MapCtx(context.Background(), 2, 1<<30, func(int) error { //nolint:errcheck
			once.Do(func() { close(interactiveUp) })
			select {
			case <-interactiveCtxDone:
				return context.Canceled
			default:
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
	}()
	<-interactiveUp

	var lone atomic.Int64 // batch indices that ran with concurrency 1
	var during atomic.Int64
	if err := MapCtx(WithClass(context.Background(), Batch), Workers(), 300, func(int) error {
		if batchConcurrent.Add(1) == 1 {
			lone.Add(1)
		}
		during.Add(1)
		time.Sleep(100 * time.Microsecond)
		batchConcurrent.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(interactiveCtxDone)
	if lone.Load() == 0 {
		t.Errorf("batch never ran caller-alone while interactive was active (%d indices)", during.Load())
	}
}
