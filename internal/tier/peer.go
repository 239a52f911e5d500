package tier

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Peer protocol: GET /v1/tier/{key} answers 200 with the blob or 404
// for a miss; PUT /v1/tier/{key} stores the body and answers 204. A 429
// or 503 is retried like a transport failure, on the retry policy's own
// jittered step: the client does not wait out a Retry-After, because a
// slow tier lookup is worse than a local recompute.

// maxPeerBlobBytes bounds a peer response read: far above any real
// assignment blob, far below a memory hazard.
const maxPeerBlobBytes = 64 << 20

// PeerClient fetches and offers tier blobs over HTTP, wrapping every
// exchange in a jittered retry policy and a per-peer circuit breaker:
// after failLimit consecutive transport/5xx failures a peer is skipped
// entirely for cooldown, so a dead daemon costs each request nothing
// instead of a connect timeout. Every failure mode reports a miss — the
// tier contract — and 404 is a clean miss that resets the breaker (the
// peer is healthy, it just lacks the key).
type PeerClient struct {
	hc        *http.Client
	policy    retryPolicy
	failLimit int
	cooldown  time.Duration
	now       func() time.Time // breaker clock; tests inject a fake

	mu       sync.Mutex
	breakers map[string]*breaker

	gets, puts, failures, skips atomic.Uint64
}

type breaker struct {
	fails     int
	openUntil time.Time
	// halfOpen marks an admitted probe whose outcome is pending; the
	// next report closes (success) or re-opens (failure) the breaker.
	halfOpen bool
}

// Breaker states as exported in /v1/stats.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerState is one peer breaker's exported state.
type BreakerState struct {
	Peer string `json:"peer"`
	// State is closed (healthy), open (skipping the peer), or
	// half-open (cooldown over: the next exchange is the probe).
	State string `json:"state"`
	// Fails is the consecutive-failure count feeding the breaker.
	Fails int `json:"fails"`
}

// The peer client's settings suit a same-datacenter fleet: a tight
// timeout and few retries, because a slow tier lookup is worse than a
// local recompute.
const (
	peerTimeout   = 2 * time.Second // per HTTP request
	retryAttempts = 2               // tries per exchange, the first included
	retryBase     = 25 * time.Millisecond
	retryMax      = 5 * time.Second
	peerFailLimit = 3               // consecutive failures that open a breaker
	peerCooldown  = 5 * time.Second // how long an open breaker skips its peer
)

// retryPolicy shapes the retries of one peer exchange.
type retryPolicy struct {
	// Attempts is the maximum number of tries including the first.
	Attempts int
	// Base is the pre-jitter wait before the second attempt; each
	// further wait doubles it.
	Base time.Duration
	// Max caps the pre-jitter wait.
	Max time.Duration
}

// newPeerClient builds a client with the fleet's settings.
func newPeerClient() *PeerClient {
	return &PeerClient{
		hc:        &http.Client{Timeout: peerTimeout},
		policy:    retryPolicy{Attempts: retryAttempts, Base: retryBase, Max: retryMax},
		failLimit: peerFailLimit,
		cooldown:  peerCooldown,
		now:       time.Now,
		breakers:  make(map[string]*breaker),
	}
}

// allowed reports whether peer's breaker admits a request now.
func (c *PeerClient) allowed(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[peer]
	if b == nil || b.fails < c.failLimit {
		return true
	}
	if c.now().After(b.openUntil) {
		// Half-open: let one probe through; a failure re-opens below.
		b.fails = c.failLimit - 1
		b.halfOpen = true
		return true
	}
	c.skips.Add(1)
	return false
}

// Available reports whether peer's breaker would admit a request now,
// without consuming the half-open probe or counting a skip. The tier's
// failover read consults it to route around an open breaker.
func (c *PeerClient) Available(peer string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[peer]
	return b == nil || b.fails < c.failLimit || c.now().After(b.openUntil)
}

// report records an exchange outcome for peer's breaker.
func (c *PeerClient) report(peer string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[peer]
	if b == nil {
		b = &breaker{}
		c.breakers[peer] = b
	}
	b.halfOpen = false
	if ok {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= c.failLimit {
		b.openUntil = c.now().Add(c.cooldown)
		c.failures.Add(1)
	}
}

// BreakerStates snapshots every known peer breaker, sorted by peer.
func (c *PeerClient) BreakerStates() []BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]BreakerState, 0, len(c.breakers))
	for peer, b := range c.breakers {
		state := BreakerClosed
		switch {
		case b.fails >= c.failLimit && c.now().Before(b.openUntil):
			state = BreakerOpen
		case b.fails >= c.failLimit || b.halfOpen:
			state = BreakerHalfOpen
		}
		out = append(out, BreakerState{Peer: peer, State: state, Fails: b.fails})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// retry runs op until it succeeds, fails for good, exhausts
// p.Attempts, or ctx ends. op reports whether its failure is worth
// another attempt; any other failure returns at once. Each wait is the
// exponential step plus full jitter (a uniform extra step), so
// synchronized clients spread out, and ctx interrupts it: a cancelled
// caller gets ctx's error without sleeping out the wait. When attempts
// run out, the last attempt's error is returned.
func retry(ctx context.Context, p retryPolicy, op func(context.Context) (again bool, err error)) error {
	wait := p.Base
	for attempt := 1; ; attempt++ {
		again, err := op(ctx)
		if err == nil || !again || attempt >= p.Attempts {
			return err
		}
		step := min(wait, p.Max)
		t := time.NewTimer(step + rand.N(step))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		wait *= 2
	}
}

// exchange is the one round trip behind Fetch and Put:
// breaker gate → counter → retried request → status class → breaker
// report. Transport errors, 429 and 503 are retried; every other
// status goes to handle, which consumes the ones its caller understands
// and returns statusErr for the rest. errPeerMiss from handle is the
// one error that reports the peer healthy.
func (c *PeerClient) exchange(ctx context.Context, peer string, count *atomic.Uint64,
	method, url string, body []byte, handle func(*http.Response) error) error {
	if !c.allowed(peer) {
		return fmt.Errorf("tier: peer %s: breaker open", peer)
	}
	count.Add(1)
	err := retry(ctx, c.policy, func(ctx context.Context) (bool, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, peer+url, rd)
		if err != nil {
			return false, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return true, err
		}
		defer func() {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for keep-alive
			resp.Body.Close()
		}()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			return true, statusErr(peer, resp)
		}
		return false, handle(resp)
	})
	// A failure after the caller's own context ended (client gone,
	// request timeout, a tiny deadline budget) says nothing about the
	// peer, so it does not feed the breaker.
	if err == nil || ctx.Err() == nil {
		c.report(peer, err == nil || err == errPeerMiss)
	}
	return err
}

func statusErr(peer string, resp *http.Response) error {
	return fmt.Errorf("tier: peer %s: %s", peer, resp.Status)
}

// Fetch fetches key from peer: it returns the blob, or errPeerMiss when
// the peer is healthy but lacks the key (it answered 404 — the one
// outcome that proves absence), or another error for every failure
// where the peer's holdings stay unknown (breaker open, transport
// error, 5xx). The tier degrades to a local compute on any error; only
// the breaker tells a clean miss from the rest.
func (c *PeerClient) Fetch(ctx context.Context, peer, key string) ([]byte, error) {
	var blob []byte
	err := c.exchange(ctx, peer, &c.gets, http.MethodGet, "/v1/tier/"+key, nil,
		func(resp *http.Response) (err error) {
			switch resp.StatusCode {
			case http.StatusOK:
				blob, err = io.ReadAll(io.LimitReader(resp.Body, maxPeerBlobBytes))
				return err
			case http.StatusNotFound:
				return errPeerMiss
			}
			return statusErr(peer, resp)
		})
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// errPeerMiss is Fetch's clean-miss sentinel: the peer answered and
// provably lacks the key.
var errPeerMiss = fmt.Errorf("tier: peer miss")

// Put offers key's blob to peer, best-effort: the return value is
// informational and no failure propagates to the caller's request.
func (c *PeerClient) Put(ctx context.Context, peer, key string, blob []byte) bool {
	err := c.exchange(ctx, peer, &c.puts, http.MethodPut, "/v1/tier/"+key, blob,
		func(resp *http.Response) error {
			if resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK {
				return nil
			}
			return statusErr(peer, resp)
		})
	return err == nil
}
