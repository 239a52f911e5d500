// Package pool provides the bounded worker pools the simulation and
// experiment pipelines fan out on. The helpers are deliberately tiny:
// callers express parallelism as "run f(i) for i in [0, n)" and write
// results into pre-sized slices by index, which keeps parallel output
// bit-identical to the sequential order regardless of scheduling.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the default pool width: the process's GOMAXPROCS.
// On a single-core runner this is 1 and every MapCtx degrades to a
// plain loop with zero goroutine overhead.
func Workers() int { return runtime.GOMAXPROCS(0) }

// active counts helper goroutines currently running across every pool
// in the process; it caps total pool width at GOMAXPROCS even when
// pools nest (an experiment fanning out per-partitioner runs whose
// inner SimulateTrace fans out per-snapshot work).
var active atomic.Int64

// Class is a fan-out's dispatch priority. It is carried on the context
// (WithClass), so a single annotation at the top of a request threads
// through every nested MapCtx/RunCtx below it — the samrd handlers tag
// /v1/select and /v1/partition Interactive and /v1/simulate Batch, and
// the simulator's internal fan-outs inherit the tag without signature
// changes.
//
// The priority is a helper-allocation policy, not a scheduler: the
// calling goroutine of every fan-out always participates regardless of
// class, so Batch work is never starved — it merely loses its extra
// helper goroutines to Interactive work while any is dispatching, and
// wins them back (the caller re-admits helpers between indices) once
// the interactive burst drains.
type Class int32

const (
	// Interactive is the default class: full helper admission.
	Interactive Class = iota
	// Batch yields helper goroutines to in-flight Interactive fan-outs.
	Batch
)

// classKey carries a Class on a context.
type classKey struct{}

// WithClass returns a context carrying the dispatch class for every
// pool fan-out below it.
func WithClass(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// ClassOf returns the dispatch class carried by ctx (Interactive when
// none is set).
func ClassOf(ctx context.Context) Class {
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c
	}
	return Interactive
}

// interactiveActive counts Interactive-class MapCtx fan-outs currently
// dispatching in the process; Batch-class helpers poll it and retire so
// the freed budget flows to the interactive work.
var interactiveActive atomic.Int64

// MapCtx runs f(i) for every i in [0, n) on at most workers
// goroutines, distributing indices dynamically (atomic counter) so
// uneven step costs do not serialize on a static slicing. It returns
// when every call has finished, a call returns a non-nil error, or ctx
// is cancelled. Once an error or cancellation is observed, no further
// indices are dispatched and the in-flight calls are drained before
// MapCtx returns — f is expected to watch ctx itself for prompt
// mid-call abort. f must not panic; invocations are independent and
// must only write state owned by index i.
//
// The calling goroutine always participates, and helpers beyond it are
// admitted only while the process-wide running-helper count stays under
// GOMAXPROCS-1. Nested pools therefore degrade gracefully: when the
// outer level already saturates the cores, inner MapCtx calls run
// inline in their caller instead of oversubscribing the scheduler —
// and the never-blocking admission makes nesting deadlock-free.
//
// The fan-out's dispatch class comes from the context (see Class /
// WithClass): a Batch-class fan-out's helper goroutines retire between
// indices while any Interactive-class fan-out is dispatching, and the
// Batch caller re-admits helpers once the interactive work drains. The
// calling goroutine itself never yields, so a Batch fan-out always
// makes progress (starvation freedom) — the class only shifts where
// the helper budget goes.
//
// On success (all returned nil) every index ran exactly once regardless
// of class, so index-slotted output stays bit-identical to a sequential
// run. On failure the return value is the error of the earliest index
// that reported one, or ctx.Err() when cancellation cut the dispatch
// short before an f failed.
func MapCtx(ctx context.Context, workers, n int, f func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}

	class := ClassOf(ctx)
	if class == Interactive {
		interactiveActive.Add(1)
		defer interactiveActive.Add(-1)
	}

	var (
		next    atomic.Int64
		stop    atomic.Bool
		helpers atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
	)
	firstIdx := -1
	var firstErr error
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	done := ctx.Done()
	budget := int64(runtime.GOMAXPROCS(0) - 1)
	var work func(helper bool)
	// trySpawn admits one more helper if the fan-out still wants one,
	// the process-wide budget has room, and — for Batch work — no
	// interactive fan-out is dispatching. The caller retries it between
	// indices, so budget yielded by retiring helpers (or freed by other
	// fan-outs finishing) is picked up without any blocking.
	trySpawn := func() {
		if helpers.Load() >= int64(workers-1) {
			return
		}
		if class == Batch && interactiveActive.Load() > 0 {
			return
		}
		if active.Add(1) > budget {
			active.Add(-1)
			return
		}
		helpers.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer active.Add(-1)
			defer helpers.Add(-1)
			work(true)
		}()
	}
	work = func(helper bool) {
		for !stop.Load() {
			select {
			case <-done:
				stop.Store(true)
				return
			default:
			}
			if helper && class == Batch && interactiveActive.Load() > 0 {
				return // yield the budget to the interactive fan-outs
			}
			if !helper {
				trySpawn()
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := f(i); err != nil {
				record(i, err)
				return
			}
		}
	}
	for w := 0; w < workers-1; w++ {
		trySpawn()
	}
	work(false)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstIdx >= 0 {
		return firstErr
	}
	if int(next.Load()) < n {
		// Cancellation stopped the dispatch before every index ran.
		return ctx.Err()
	}
	return nil
}

// RunCtx executes the given functions concurrently with the same
// cancellation contract as MapCtx: it stops dispatching once ctx is
// cancelled or a function fails, drains what is running, and returns
// the earliest error.
func RunCtx(ctx context.Context, fns ...func() error) error {
	return MapCtx(ctx, Workers(), len(fns), func(i int) error { return fns[i]() })
}
