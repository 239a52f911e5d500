// Package memo provides the bounded, concurrency-safe memoization
// substrate the content-addressed layers of the repository share: the
// in-process prep-base and band caches under the unit-chain partitioners,
// the simulator's step cache, the trace cache of internal/apps, and the
// HTTP partition cache of internal/server.
//
// A Cache is an LRU keyed by a comparable (typically content-hash)
// key, with singleflight coalescing of concurrent identical misses:
// while one caller (the leader) computes a key, every other caller of
// the same key waits for that result instead of recomputing it. A
// leader whose compute fails — in this repository by cancellation, or
// by the partitioners' refusal of a hierarchy past their unit budget,
// which they make before any work — reports the error only to itself
// and to the followers whose own context is also dead; followers with a
// live context retry and may lead the recompute, so one caller's
// cancellation never poisons the cache for another (nothing is stored
// on failure). A Cache may read through a second level (Tier) on a
// leader's miss, but it writes only to its own LRU: storing a computed
// value anywhere else is the caller's business, once the call has
// returned Miss.
//
// The memoization contract callers must uphold: the value stored under
// a key must be a pure function of that key (content-addressing), and
// stored values are shared — every reader must treat them as
// immutable. A computation whose output depends on carried state must
// never be cached; split the pure part off and cache that (post-mapping
// caches its inner partition and relabels after the lookup).
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Dispositions: how a GetOrCompute call obtained its result.
const (
	// Hit served a previously stored result.
	Hit = "hit"
	// Miss led a fresh compute (exactly one per distinct in-flight
	// key: misses count executions).
	Miss = "miss"
	// Shared coalesced onto another caller's in-flight compute of the
	// same key (the singleflight path: no duplicate execution).
	Shared = "shared"
	// TierHit served a second-level (tier) result: the singleflight
	// leader's local miss was answered by the configured Tier instead
	// of a compute. Followers of a tier-served flight still report
	// Shared.
	TierHit = "tier"
)

// Tier is a read-through second-level cache consulted behind the miss
// path: it returns the second level's value for k, or false on a miss
// or any failure (network, corruption, timeout), and must honour ctx (a
// dead ctx returns false promptly). Only a singleflight leader whose
// local lookup missed calls it, so concurrent identical misses consult
// the tier at most once. The cache never writes to it: a caller that
// wants a computed value in the second level stores it there itself,
// once GetOrCompute has reported Miss. A tier can never turn a
// computable request into an error: a miss degrades to the local
// compute. Values it returns obey the same contract as local entries:
// pure functions of their key, immutable to every reader.
type Tier[K comparable, V any] func(ctx context.Context, k K) (V, bool)

// Cache is a bounded LRU with singleflight miss coalescing. The zero
// value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *entry[K, V]
	items   map[K]*list.Element
	flights map[K]*flight[V]

	hits, misses, shared, tierHits atomic.Uint64

	// tier, when set, is the read-through second level behind the miss
	// path (fleet peers and/or disk). Nil means purely local behavior.
	tier Tier[K, V]

	// onFlight, when set (tests only), is called outside the lock
	// after a GetOrCompute call either registers itself as the leader
	// of a key's compute (leader=true) or joins an existing one
	// (false). It deterministically interleaves singleflight tests.
	onFlight func(k K, leader bool)
}

type entry[K comparable, V any] struct {
	key K
	v   V
}

// flight is one in-progress compute; followers wait on done.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// New returns a cache holding at most capacity values (minimum 1). Its
// index grows with its entries, so a process-wide cache bounded for a
// long-running daemon costs a process that never fills it nothing.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		cap:     capacity,
		order:   list.New(),
		items:   make(map[K]*list.Element),
		flights: make(map[K]*flight[V]),
	}
}

// SetOnFlight installs the test-only flight instrumentation hook. It
// must be set before the cache sees concurrent use.
func (c *Cache[K, V]) SetOnFlight(hook func(k K, leader bool)) { c.onFlight = hook }

// SetTier installs the second-level lookup consulted on the leader's
// miss path (nil disables it). Like SetOnFlight it must be set before
// the cache sees concurrent use. Everything tier-side — fleet failover,
// corrupt-blob quarantine — stays behind the lookup; this cache only
// ever sees hit-or-miss.
func (c *Cache[K, V]) SetTier(t Tier[K, V]) { c.tier = t }

// Get returns the cached value for k, updating recency and the hit
// counter. A miss is not counted here: miss accounting belongs to
// GetOrCompute, where a miss implies an execution.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	el, ok := c.items[k]
	var v V
	if ok {
		c.order.MoveToFront(el)
		// Copy the value under the lock: addLocked may refresh the
		// entry concurrently.
		v = el.Value.(*entry[K, V]).v
	}
	c.mu.Unlock()
	if !ok {
		return v, false
	}
	c.hits.Add(1)
	return v, true
}

// Contains reports whether a value is stored for k without counting a
// hit or refreshing its recency: a probe that leaves the cache exactly
// as it found it.
func (c *Cache[K, V]) Contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// GetOrCompute returns the value for k, computing it at most once
// across concurrent callers: a stored result is a hit; the first
// caller of an uncached key becomes the leader, runs compute, and
// stores the result (a miss); callers arriving while that compute is
// in flight wait for it and share its result (shared). A leader whose
// compute fails reports its error only to itself and to the followers
// whose own ctx is also dead; followers with a live ctx simply retry,
// so one caller's cancellation never poisons another's request. The
// returned disposition is one of Hit, Miss, Shared, TierHit.
//
// When a Tier is installed, the leader consults it before computing:
// a tier answer is stored locally and returned with the TierHit
// disposition (no compute ran — misses still count executions
// exactly), while a tier miss or failure falls through to the local
// compute. The tier sits strictly behind singleflight, so a thundering
// herd performs at most one tier lookup. Either way the leader closes
// its flight as soon as it has the value: followers never wait for
// anything but the lookup and the compute.
func (c *Cache[K, V]) GetOrCompute(ctx context.Context, k K, compute func() (V, error)) (V, string, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[k]; ok {
			c.order.MoveToFront(el)
			v := el.Value.(*entry[K, V]).v // copy under the lock (addLocked may refresh)
			c.mu.Unlock()
			c.hits.Add(1)
			return v, Hit, nil
		}
		if f, ok := c.flights[k]; ok {
			c.mu.Unlock()
			if hook := c.onFlight; hook != nil {
				hook(k, false)
			}
			select {
			case <-f.done:
				if f.err == nil {
					c.shared.Add(1)
					return f.v, Shared, nil
				}
				// The leader failed (cancellation). If this caller is
				// still live it retries (and may lead the recompute).
				if err := ctx.Err(); err != nil {
					return zero, "", err
				}
				continue
			case <-ctx.Done():
				return zero, "", ctx.Err()
			}
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[k] = f
		c.mu.Unlock()
		if hook := c.onFlight; hook != nil {
			hook(k, true)
		}
		disp := Miss
		if c.tier != nil {
			if v, ok := c.tier(ctx, k); ok {
				f.v, disp = v, TierHit
			}
		}
		if disp == Miss {
			c.misses.Add(1)
			f.v, f.err = compute()
		} else {
			c.tierHits.Add(1)
		}
		c.mu.Lock()
		delete(c.flights, k)
		if f.err == nil {
			c.addLocked(k, f.v)
		}
		c.mu.Unlock()
		close(f.done)
		if f.err != nil {
			return zero, "", f.err
		}
		return f.v, disp, nil
	}
}

// Add stores v (idempotently: a concurrent duplicate compute simply
// refreshes the entry) and evicts the least recently used entry past
// capacity.
func (c *Cache[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(k, v)
}

func (c *Cache[K, V]) addLocked(k K, v V) {
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry[K, V]).v = v
		return
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, v: v})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*entry[K, V]).key)
	}
}

// Flush drops every stored value (counters are kept). In-flight
// computes are unaffected: they complete and store as usual.
func (c *Cache[K, V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}

// Len returns the number of cached values.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Capacity returns the cache bound.
func (c *Cache[K, V]) Capacity() int { return c.cap }

// Stats returns the cumulative hit, miss, and shared (coalesced)
// counts. Misses equal actual executions through GetOrCompute.
func (c *Cache[K, V]) Stats() (hits, misses, shared uint64) {
	return c.hits.Load(), c.misses.Load(), c.shared.Load()
}

// TierHits returns the cumulative count of leader misses answered by
// the installed Tier instead of a compute (always 0 without a tier).
func (c *Cache[K, V]) TierHits() uint64 { return c.tierHits.Load() }
