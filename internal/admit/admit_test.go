package admit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	return New(cfg)
}

// mustAdmit admits with a background context and fails the test on any
// refusal.
func mustAdmit(t *testing.T, c *Controller, tenant string, pri Priority) func() {
	t.Helper()
	release, err := c.Admit(context.Background(), tenant, pri, 0)
	if err != nil {
		t.Fatalf("Admit(%q, %v) = %v, want admitted", tenant, pri, err)
	}
	return release
}

func TestAdmitGrantsUpToCap(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 3})
	var releases []func()
	for i := 0; i < 3; i++ {
		releases = append(releases, mustAdmit(t, c, "", Interactive))
	}
	st := c.Stats()
	if st.InFlight != 3 || st.Admitted != 3 {
		t.Fatalf("stats = %+v, want 3 in flight / 3 admitted", st)
	}
	// The cap is reached and there is no queue: the next request sheds.
	_, err := c.Admit(context.Background(), "", Interactive, 0)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonQueueFull {
		t.Fatalf("over-cap Admit error = %v, want queue-full shed", err)
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("shed RetryAfter = %v, want positive", shed.RetryAfter)
	}
	for _, r := range releases {
		r()
	}
	if st := c.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight after release = %d, want 0", st.InFlight)
	}
	// Released capacity admits again.
	mustAdmit(t, c, "", Interactive)()
}

func TestReleaseIsIdempotent(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 1})
	release := mustAdmit(t, c, "", Interactive)
	release()
	release()
	release()
	if st := c.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight = %d after repeated release, want 0", st.InFlight)
	}
}

func TestQueueGrantsInOrderWhenSlotFrees(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 1, QueueDepth: 4})
	holder := mustAdmit(t, c, "", Interactive)

	const waiters = 3
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	enqueue := func(id int) {
		defer wg.Done()
		release, err := c.Admit(context.Background(), "", Interactive, 0)
		if err != nil {
			t.Errorf("waiter %d: %v", id, err)
			return
		}
		order <- id
		release()
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go enqueue(i)
		// Deterministic queue order: wait until this waiter is queued.
		for {
			if c.Stats().Queued == i+1 {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	holder()
	wg.Wait()
	close(order)
	want := 0
	for id := range order {
		if id != want {
			t.Fatalf("grant order violated FIFO: got %d, want %d", id, want)
		}
		want++
	}
	if st := c.Stats(); st.QueuedTotal != waiters {
		t.Errorf("queued_total = %d, want %d", st.QueuedTotal, waiters)
	}
}

// TestWeightedPriorityPrefersInteractiveWithoutStarvingBatch pins the
// grant discipline: with both classes waiting, interactive waiters are
// granted first, but after interactiveWeight consecutive interactive
// grants a batch waiter gets the slot.
func TestWeightedPriorityPrefersInteractiveWithoutStarvingBatch(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 1, QueueDepth: 16})
	holder := mustAdmit(t, c, "", Interactive)

	type grant struct {
		pri Priority
		id  int
	}
	grants := make(chan grant, 16)
	var wg sync.WaitGroup
	enqueue := func(pri Priority, id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := c.Admit(context.Background(), "", pri, 0)
			if err != nil {
				t.Errorf("%v waiter %d: %v", pri, id, err)
				return
			}
			grants <- grant{pri, id}
			release()
		}()
		for want := id + 1; ; {
			if c.Stats().Queued == want {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// One batch waiter first, then interactiveWeight+2 interactive
	// waiters behind it.
	enqueue(Batch, 0)
	for i := 0; i < interactiveWeight+2; i++ {
		enqueue(Interactive, i+1)
	}
	holder()
	wg.Wait()
	close(grants)

	var seq []Priority
	for g := range grants {
		seq = append(seq, g.pri)
	}
	if len(seq) != interactiveWeight+3 {
		t.Fatalf("granted %d waiters, want %d", len(seq), interactiveWeight+3)
	}
	// The first interactiveWeight grants go to interactive (preemption),
	// then the batch waiter must run (starvation freedom).
	for i := 0; i < interactiveWeight; i++ {
		if seq[i] != Interactive {
			t.Fatalf("grant %d = %v, want interactive (preemption)", i, seq[i])
		}
	}
	if seq[interactiveWeight] != Batch {
		t.Fatalf("grant %d = %v, want batch (anti-starvation after %d interactive grants)",
			interactiveWeight, seq[interactiveWeight], interactiveWeight)
	}
}

func TestQueueFullSheds(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 1, QueueDepth: 1})
	holder := mustAdmit(t, c, "", Interactive)
	defer holder()

	// Fill the single queue slot.
	queued := make(chan struct{})
	go func() {
		release, err := c.Admit(context.Background(), "", Interactive, 0)
		if err == nil {
			defer release()
		}
		close(queued)
	}()
	for c.Stats().Queued != 1 {
		time.Sleep(100 * time.Microsecond)
	}

	_, err := c.Admit(context.Background(), "", Interactive, 0)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonQueueFull {
		t.Fatalf("err = %v, want queue-full shed", err)
	}
	if st := c.Stats(); st.ShedQueueFull != 1 || st.ShedTotal() != 1 {
		t.Errorf("stats = %+v, want exactly one queue-full shed", st)
	}
	holder()
	<-queued
}

// TestDeadlineAwareShed: a request whose declared budget (or ctx
// deadline) cannot survive the estimated queue wait is shed immediately
// instead of queued to fail late.
func TestDeadlineAwareShed(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 1, QueueDepth: 8})
	holder := mustAdmit(t, c, "", Interactive)
	defer holder()

	// Declared budget below the 100ms service estimate a controller
	// starts from: shed.
	_, err := c.Admit(context.Background(), "", Interactive, 10*time.Millisecond)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonDeadline {
		t.Fatalf("short-budget err = %v, want deadline shed", err)
	}

	// Same via a ctx deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = c.Admit(ctx, "", Interactive, 0)
	if !errors.As(err, &shed) || shed.Reason != ReasonDeadline {
		t.Fatalf("short-ctx err = %v, want deadline shed", err)
	}

	// A generous budget queues instead.
	done := make(chan error, 1)
	go func() {
		release, err := c.Admit(context.Background(), "", Interactive, 10*time.Second)
		if err == nil {
			release()
		}
		done <- err
	}()
	for c.Stats().Queued != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	holder()
	if err := <-done; err != nil {
		t.Fatalf("generous-budget waiter failed: %v", err)
	}
	if st := c.Stats(); st.ShedDeadline != 2 {
		t.Errorf("shed_deadline = %d, want 2", st.ShedDeadline)
	}
}

// TestQueuedWaiterCancellation: a waiter whose ctx dies while queued
// returns the ctx error and never blocks a later grant.
func TestQueuedWaiterCancellation(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 1, QueueDepth: 4})
	holder := mustAdmit(t, c, "", Interactive)

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, "", Interactive, 0)
		errs <- err
	}()
	for c.Stats().Queued != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}

	// A healthy waiter behind the abandoned slot still gets the grant.
	done := make(chan error, 1)
	go func() {
		release, err := c.Admit(context.Background(), "", Interactive, 0)
		if err == nil {
			release()
		}
		done <- err
	}()
	for c.Stats().Queued != 1 {
		time.Sleep(100 * time.Microsecond)
	}
	holder()
	if err := <-done; err != nil {
		t.Fatalf("waiter behind abandoned entry failed: %v", err)
	}
	if st := c.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("gauges after drain = %+v, want zero", st)
	}
}

func TestTenantTokenBucket(t *testing.T) {
	// The bucket holds ceil(TenantRate) = 10 tokens.
	c := newTestController(t, Config{MaxInFlight: 16, TenantRate: 10})
	// The burst admits immediately.
	for i := 0; i < 10; i++ {
		mustAdmit(t, c, "alice", Interactive)()
	}
	// The bucket is empty: throttled with a positive retry hint.
	_, err := c.Admit(context.Background(), "alice", Interactive, 0)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ReasonRateLimit {
		t.Fatalf("err = %v, want rate-limit shed", err)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > 150*time.Millisecond {
		t.Errorf("RetryAfter = %v, want ~100ms (1 token at 10/s)", shed.RetryAfter)
	}
	// Tenants are isolated: bob is unaffected by alice's burst.
	mustAdmit(t, c, "bob", Interactive)()

	// Tokens accrue back over time.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Admit(context.Background(), "alice", Interactive, 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alice's bucket never refilled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := c.Stats()
	if st.Tenants["alice"].Throttled == 0 {
		t.Errorf("alice stats = %+v, want throttles recorded", st.Tenants["alice"])
	}
	if st.Tenants["bob"].Admitted != 1 || st.Tenants["bob"].Throttled != 0 {
		t.Errorf("bob stats = %+v, want 1 admit / 0 throttles", st.Tenants["bob"])
	}
}

// TestTenantBurstIsRateRoundedUp: a fresh tenant's bucket holds its
// rate rounded up, and at least one token.
func TestTenantBurstIsRateRoundedUp(t *testing.T) {
	for rate, want := range map[float64]int{0.5: 1, 1: 1, 2.5: 3, 3: 3} {
		c := newTestController(t, Config{MaxInFlight: 16, TenantRate: rate})
		admitted := 0
		for ; admitted <= want; admitted++ {
			release, err := c.Admit(context.Background(), "alice", Interactive, 0)
			if err != nil {
				break
			}
			release()
		}
		if admitted != want {
			t.Errorf("rate %g: burst admitted %d, want %d", rate, admitted, want)
		}
	}
}

func TestSaturatedTracksCapacity(t *testing.T) {
	// With a queue: saturated only when the queue is full.
	c := newTestController(t, Config{MaxInFlight: 1, QueueDepth: 1})
	if c.Saturated() {
		t.Fatal("idle controller reports saturated")
	}
	holder := mustAdmit(t, c, "", Interactive)
	if c.Saturated() {
		t.Fatal("cap reached but queue empty: not saturated yet")
	}
	go func() {
		if release, err := c.Admit(context.Background(), "", Interactive, 0); err == nil {
			release()
		}
	}()
	for !c.Saturated() {
		time.Sleep(100 * time.Microsecond)
	}
	holder()

	// Without a queue: saturated as soon as the cap is reached.
	c2 := newTestController(t, Config{MaxInFlight: 1})
	release := mustAdmit(t, c2, "", Interactive)
	if !c2.Saturated() {
		t.Fatal("queueless controller at cap must report saturated")
	}
	release()
	if c2.Saturated() {
		t.Fatal("released controller still reports saturated")
	}
}

// TestConcurrentAdmissionAccounting hammers the controller from many
// goroutines and checks the books balance: every admit released, gauges
// back to zero, admitted+sheds == attempts.
func TestConcurrentAdmissionAccounting(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 4, QueueDepth: 8})
	const goroutines, perG = 16, 50
	var admitted, shed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b", "c"}[g%3]
			pri := Priority(g % 2)
			for i := 0; i < perG; i++ {
				release, err := c.Admit(context.Background(), tenant, pri, 0)
				if err != nil {
					var se *ShedError
					if !errors.As(err, &se) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				release()
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gauges = %d in flight, %d queued, want 0/0", st.InFlight, st.Queued)
	}
	if st.Admitted != admitted.Load() {
		t.Errorf("admitted counter = %d, callers saw %d", st.Admitted, admitted.Load())
	}
	if st.ShedTotal() != shed.Load() {
		t.Errorf("shed counters = %d, callers saw %d", st.ShedTotal(), shed.Load())
	}
	if got := admitted.Load() + shed.Load(); got != goroutines*perG {
		t.Errorf("outcomes = %d, want %d", got, goroutines*perG)
	}
	var tenantAdmits uint64
	for _, ts := range st.Tenants {
		tenantAdmits += ts.Admitted
		if ts.InFlight != 0 {
			t.Errorf("tenant gauge nonzero after drain: %+v", ts)
		}
	}
	if tenantAdmits != st.Admitted {
		t.Errorf("per-tenant admits sum %d != total %d", tenantAdmits, st.Admitted)
	}
}

// TestInjectedAcceptError: a refusal forced from outside the
// controller — its one slot held, no queue — is a well-formed shed with
// a retry hint, counted like any other and booked to the tenant that
// was refused, while requests that find the slot free admit normally
// and no slot leaks.
func TestInjectedAcceptError(t *testing.T) {
	c := newTestController(t, Config{MaxInFlight: 1})
	admitted, shed := 0, 0
	for i := 0; i < 6; i++ {
		var hold func()
		if i%2 == 1 {
			hold = mustAdmit(t, c, "holder", Interactive)
		}
		release, err := c.Admit(context.Background(), "tenant", Interactive, 0)
		if hold != nil {
			hold()
		}
		if err == nil {
			admitted++
			release()
			continue
		}
		var se *ShedError
		if !errors.As(err, &se) || se.Reason != ReasonQueueFull {
			t.Fatalf("Admit with the slot held = %v, want a queue-full shed", err)
		}
		if se.RetryAfter <= 0 {
			t.Errorf("shed RetryAfter = %v, want positive", se.RetryAfter)
		}
		shed++
	}
	if admitted != 3 || shed != 3 {
		t.Fatalf("admitted %d / shed %d with the slot held every other time, want 3 / 3", admitted, shed)
	}
	st := c.Stats()
	if st.ShedQueueFull != 3 || st.Tenants["tenant"].Shed != 3 || st.Tenants["holder"].Shed != 0 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 3 sheds booked to the refused tenant and no leaked slots", st)
	}
}
