// Package pool provides the bounded worker pools the AMR driver, the
// simulation and the experiment pipelines fan out on. The interface is
// deliberately tiny: callers express parallelism as "run f(i) for i in
// [0, n)" and write results into pre-sized slices by index, which keeps
// parallel output bit-identical to the sequential order regardless of
// scheduling. Behind it, helper goroutines outlive their fan-out by a
// short linger so that back-to-back fan-outs do not each pay for waking
// an idle core (see linger).
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers returns the default pool width: the process's GOMAXPROCS.
// On a single-core runner this is 1 and every MapCtx degrades to a
// plain loop with zero goroutine overhead.
func Workers() int { return runtime.GOMAXPROCS(0) }

// active counts helper goroutines alive across every pool in the
// process, working or lingering (see linger); it caps total pool width
// at GOMAXPROCS even when pools nest (an experiment fanning out
// per-partitioner runs whose inner SimulateTrace fans out per-snapshot
// work).
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

// linger is how long a helper that has run out of work stays awake for
// the next fan-out, and how long a caller that has run out of work
// spins for its helpers before it sleeps.
//
// Waking a goroutine on an idle core costs more than many fan-outs
// last. On a 2-vCPU Xeon VM (go 1.24), a goroutine spawned onto the
// idle core started after a median of 74 µs (p90 79 µs, 2000 spawns),
// and 115–120 µs on a busier day. The AMR driver's per-patch phases
// last 45 µs (BL2D) to 264 µs (RM2D) on average at the paper's
// configuration, about 1500 of them per application, each a few µs of
// serial code after the last, so a helper spawned per fan-out often
// arrived after the work was done. A helper still spinning when the
// next fan-out starts joins it within a poll; one that finds nothing
// within linger exits, so an idle process keeps nothing awake for
// longer than that. It is a constant, not a setting: it only has to
// outlast the serial gaps between the driver's phases. In paired runs
// of the four applications' generation, 50 µs was no faster (7 % slower
// in one set of 12 pairs) and 2 ms no faster for more CPU.
const linger = 200 * time.Microsecond

// spinPolls is how many polls of a spinning helper or caller pass
// between two runtime.Gosched calls (and two looks at the clock), so a
// spinner never keeps a runnable goroutine off its core for long.
const spinPolls = 64

var (
	// idle counts the helpers that are lingering for a fan-out to join.
	idle atomic.Int64
	// offer is the fan-out that last asked for helpers while it still
	// wants some: a lingering helper joins it instead of a new goroutine
	// being spawned.
	offer atomic.Pointer[fanout]
)

// The bits of fanout.state above the joined-helper count.
const (
	closedBit  = int64(1) << 62 // the caller has finished: no helper may join
	waitingBit = int64(1) << 61 // the caller sleeps on wake until the count is 0
	countMask  = waitingBit - 1
)

// fanout is one MapCtx call's shared state.
type fanout struct {
	f      func(i int) error
	n      int64
	want   int64 // helpers beyond the caller: workers-1
	budget int64 // the process-wide helper cap: GOMAXPROCS-1
	class  Class
	done   <-chan struct{}

	next  atomic.Int64 // the next index to dispatch
	stop  atomic.Bool  // an error or cancellation was observed
	state atomic.Int64 // joined helpers still working, plus closedBit and waitingBit
	wake  chan struct{}

	mu       sync.Mutex
	firstIdx int
	firstErr error
}

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
// admitted only while the process-wide helper count (working and
// lingering) stays under GOMAXPROCS-1. Nested pools therefore degrade
// gracefully: when the outer level already saturates the cores, inner
// MapCtx calls run inline in their caller instead of oversubscribing
// the scheduler — and the never-blocking admission makes nesting
// deadlock-free.
//
// Helpers outlive their fan-out by up to linger: a helper out of work
// spins, and the next fan-out that wants helpers takes it over instead
// of spawning a goroutine and waiting for the scheduler to wake a core
// (see linger). The caller likewise spins for its helpers before it
// sleeps, since a sleeping caller gives its core back and pays the same
// wake-up when they finish. Trace generation, whose per-patch phases
// are short and back to back, is what this is for.
//
// The fan-out's dispatch class comes from the context (see Class /
// WithClass): a Batch-class fan-out's helper goroutines leave it
// between indices while any Interactive-class fan-out is dispatching
// (and linger, free to join that one), and the Batch caller re-admits
// helpers once the interactive work drains. The
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

	j := &fanout{
		f:        f,
		n:        int64(n),
		want:     int64(workers - 1),
		budget:   int64(runtime.GOMAXPROCS(0) - 1),
		class:    ClassOf(ctx),
		done:     ctx.Done(),
		wake:     make(chan struct{}, 1),
		firstIdx: -1,
	}
	if j.class == Interactive {
		interactiveActive.Add(1)
		defer interactiveActive.Add(-1)
	}
	j.work(false)
	offer.CompareAndSwap(j, nil)
	j.close()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.firstIdx >= 0 {
		return j.firstErr
	}
	if j.next.Load() < j.n {
		// Cancellation stopped the dispatch before every index ran.
		return ctx.Err()
	}
	return nil
}

// work runs indices until none is left, one fails, the context is done
// or — for a Batch helper — an interactive fan-out is dispatching. The
// caller recruits helpers before each index it takes, so budget freed
// by retiring helpers or finished fan-outs is picked up without any
// blocking.
func (j *fanout) work(helper bool) {
	for !j.stop.Load() {
		select {
		case <-j.done:
			j.stop.Store(true)
			return
		default:
		}
		if helper && j.class == Batch && interactiveActive.Load() > 0 {
			return // yield the budget to the interactive fan-outs
		}
		if !helper {
			j.recruit()
		}
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		if err := j.f(int(i)); err != nil {
			j.record(int(i), err)
			return
		}
	}
}

// record keeps the error of the earliest failing index and stops the
// dispatch.
func (j *fanout) record(i int, err error) {
	j.mu.Lock()
	if j.firstIdx < 0 || i < j.firstIdx {
		j.firstIdx, j.firstErr = i, err
	}
	j.mu.Unlock()
	j.stop.Store(true)
}

// recruit asks for the helpers the fan-out still wants: it offers
// itself to lingering helpers and, when none is lingering, spawns new
// ones while the process-wide budget has room. Batch work recruits
// nothing while an interactive fan-out is dispatching.
func (j *fanout) recruit() {
	if j.state.Load()&countMask >= j.want || (j.class == Batch && interactiveActive.Load() > 0) {
		return
	}
	if offer.Load() != j {
		offer.Store(j)
	}
	for idle.Load() == 0 {
		if active.Add(1) > j.budget {
			active.Add(-1)
			return
		}
		if !j.join() {
			active.Add(-1)
			return
		}
		go helper(j)
	}
}

// join admits one more helper to the fan-out, unless it has all it
// wants, has nothing left to dispatch, or its caller has finished.
func (j *fanout) join() bool {
	for {
		s := j.state.Load()
		if s&closedBit != 0 || s&countMask >= j.want || j.stop.Load() || j.next.Load() >= j.n ||
			(j.class == Batch && interactiveActive.Load() > 0) {
			return false
		}
		if j.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// leave retires a joined helper, waking the caller if it sleeps on the
// last one.
func (j *fanout) leave() {
	if j.state.Add(-1) == waitingBit {
		select {
		case j.wake <- struct{}{}:
		default:
		}
	}
}

// close waits until no joined helper is working and shuts the fan-out
// to late joiners: it spins for up to linger, then sleeps until the
// last helper leaves.
func (j *fanout) close() {
	var start time.Time
	for polls := 1; ; polls++ {
		s := j.state.Load()
		switch {
		case s&countMask == 0:
			if j.state.CompareAndSwap(s, closedBit) {
				return
			}
		case polls%spinPolls != 0:
		case start.IsZero():
			start = time.Now()
			runtime.Gosched()
		case time.Since(start) < linger:
			runtime.Gosched()
		case s&waitingBit == 0:
			j.state.CompareAndSwap(s, s|waitingBit)
		default:
			<-j.wake
		}
	}
}

// helper runs fan-outs for as long as one is ready within linger of the
// last, then gives its budget back.
func helper(j *fanout) {
	for j != nil {
		j.work(true)
		j.leave()
		j = await()
	}
	active.Add(-1)
}

// await spins for up to linger for an offered fan-out to join, and
// returns it, or nil when none came.
func await() *fanout {
	idle.Add(1)
	defer idle.Add(-1)
	start := time.Now()
	for polls := 1; ; polls++ {
		if j := offer.Load(); j != nil && j.join() {
			return j
		}
		if polls%spinPolls == 0 {
			if time.Since(start) >= linger {
				return nil
			}
			runtime.Gosched()
		}
	}
}

// RunCtx executes the given functions concurrently with the same
// cancellation contract as MapCtx: it stops dispatching once ctx is
// cancelled or a function fails, drains what is running, and returns
// the earliest error.
func RunCtx(ctx context.Context, fns ...func() error) error {
	return MapCtx(ctx, Workers(), len(fns), func(i int) error { return fns[i]() })
}
