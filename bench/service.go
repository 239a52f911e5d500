package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"samr/internal/geom"
	"samr/internal/partition"
	"samr/internal/server"
)

// runEnv is what every workload needs to run.
type runEnv struct {
	root    string // the checkout
	samrd   string // the daemon binary built from it
	tmp     string // scratch directory of this invocation, inside the checkout
	scale   scale
	seed    int64
	seconds int
}

// serviceWorkload is a workload that drives real samrd processes over
// HTTP with one closed-loop client: the next request is sent when the
// previous answer has been read, with no think time, because a SAMR
// application blocks on its partition before it can continue.
type serviceWorkload struct {
	name, why string
	// config is what member i runs with beyond samrd's defaults, given
	// a fresh directory of the repetition and every member's URL. The
	// daemons get it as flags, the traced run's in-process servers as
	// it is.
	config func(dir string, i int, urls []string) server.Config
	build  func(states [][]*state, rng *rand.Rand, targetOps int) schedule
	// opsPer10s is the number of requests the repetitions of a run send
	// in their timed windows when -seconds is 10; it scales with
	// -seconds. The count, not the clock, ends a window, so both sides
	// of a comparison serve the identical request sequence.
	opsPer10s int
	// path names the replayed stages (span names) a median request of
	// this workload passes through; the traced run subtracts them from
	// the handler time to get server.residual_us.
	path []string
}

var serviceWorkloads = []*serviceWorkload{
	{
		name: "regrid-sessions",
		why:  "streaming sessions of regrid deltas that always miss the result cache: the partitioner does most of the work",
		config: func(string, int, []string) server.Config {
			return server.Config{} // a default daemon
		},
		build:     regridSchedule,
		opsPer10s: 3000,
		path:      []string{"wire.req_decode", "grid.delta", "memo.miss_insert", "partition.compute", "partition.loads", "wire.resp_encode"},
	},
	{
		name: "repeat-posts",
		why:  "full posts of a hot set that always hit the result cache: the partitioner does no work, the wire, grid, memo and admit layers all of it",
		config: func(string, int, []string) server.Config {
			// Admission is on the path and never saturated by one client.
			return server.Config{MaxInFlight: 2}
		},
		build:     repeatSchedule,
		opsPer10s: 10000,
		path:      []string{"wire.req_decode", "grid.validate", "grid.signature", "admit.admit", "memo.hit", "partition.loads", "wire.resp_encode"},
	},
	{
		name: "fleet-share",
		why:  "fresh keys posted to each member of a three-daemon fleet: the only workload with the tier's codec, disk store, ring and peer protocol on the path",
		config: func(dir string, i int, urls []string) server.Config {
			return server.Config{TierDir: filepath.Join(dir, fmt.Sprintf("tier%d", i)), TierPeers: urls, TierSelf: urls[i]}
		},
		build:     fleetSchedule,
		opsPer10s: 4900,
		path:      []string{"wire.req_decode", "grid.validate", "grid.signature", "tier.disk_get", "tier.decode", "partition.loads", "wire.resp_encode"},
	},
}

// daemonFlags spells the fields the workloads set as samrd flags.
func daemonFlags(c server.Config) []string {
	var flags []string
	if c.MaxInFlight > 0 {
		flags = append(flags, "-max-inflight", strconv.Itoa(c.MaxInFlight))
	}
	if c.TierDir != "" {
		flags = append(flags, "-tier-dir", c.TierDir, "-tier-peers", strings.Join(c.TierPeers, ","), "-tier-self", c.TierSelf)
	}
	return flags
}

// reps is the number of repetitions of an untraced run. Each one
// starts fresh processes with cold caches and yields one value per
// metric. They are many and short because this box's noise is bursts
// of a few seconds that only ever slow things down: a burst then spoils
// a minority of the values, which the reported quartile ignores.
const reps = 8

// sampleEvery: one timed answer in this many is kept and validated in
// full after the clock has stopped.
const sampleEvery = 16

// sample is the outcome of one request.
type sample struct {
	op   *op
	ms   float64
	fail string // why the operation failed; "" when it did not
	body []byte // the answer, when it is validated after the run
}

// client is the load generator: one keep-alive connection per member.
type client struct {
	http   *http.Client
	urls   []string
	tokens []string // session token per slot
	buf    bytes.Buffer
}

func newClient(urls []string, slots int) *client {
	return &client{
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second},
		urls:   urls,
		tokens: make([]string, slots),
	}
}

func (c *client) url(o *op) string {
	switch o.Kind {
	case opCreate:
		return c.urls[o.Member] + "/v1/session"
	case opStep:
		return c.urls[o.Member] + "/v1/session/" + c.tokens[o.Slot] + "/step"
	}
	return c.urls[o.Member] + "/v1/partition"
}

// do sends o and checks what can be checked from the status line and
// headers; the body is read in full (the connection is reused) and
// copied out only when keep is set.
func (c *client) do(o *op, keep bool) sample {
	s := sample{op: o}
	start := time.Now()
	resp, err := c.http.Post(c.url(o), "application/json", bytes.NewReader(o.Body))
	if err != nil {
		s.fail = err.Error()
		return s
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	s.ms = float64(time.Since(start)) / 1e6
	switch {
	case err != nil:
		s.fail = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.fail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	case o.Kind == opCreate:
		if c.tokens[o.Slot] = resp.Header.Get(server.SessionHeader); c.tokens[o.Slot] == "" {
			s.fail = "create answered no session token"
		}
	case resp.Header.Get("X-Samr-Cache") != o.Want:
		s.fail = fmt.Sprintf("disposition %q, want %q", resp.Header.Get("X-Samr-Cache"), o.Want)
	case resp.Header.Get("X-Samr-Signature") != o.St.Sig:
		s.fail = "X-Samr-Signature is not the hierarchy's signature"
	}
	if keep && s.fail == "" {
		s.body = bytes.Clone(c.buf.Bytes())
	}
	return s
}

// repResult is what one repetition measured.
type repResult struct {
	setupS    float64
	wallS     float64 // the timed window
	samples   []sample
	attempted int
	failed    int
	failures  []string // the first few reasons
	cost      usage    // of the processes under test
	sched     schedule
	before    []map[string]any // /v1/stats per member when the timed window opened
	after     []map[string]any // and when it closed
}

func (r *repResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// timedMS returns the latencies of the operations keep selects, those
// that succeeded.
func (r *repResult) timedMS(keep func(*op) bool) []float64 {
	var out []float64
	for i := range r.samples {
		if s := &r.samples[i]; s.fail == "" && keep(s.op) {
			out = append(out, s.ms)
		}
	}
	return out
}

func isTimed(o *op) bool { return o.Timed }

// serviceInputs is what the repetitions of one run share: the regrid
// states of the four applications, generated once, and the reference
// partitions the answers are checked against.
type serviceInputs struct {
	states [][]*state
	genS   float64 // how long generating them took
	refs   map[refKey]*partition.Assignment
}

type refKey struct {
	st     *state
	nprocs int
}

func newServiceInputs(ctx context.Context, e *runEnv) (*serviceInputs, error) {
	start := time.Now()
	traces, err := generateTraces(ctx, e.scale)
	if err != nil {
		return nil, err
	}
	return &serviceInputs{states: statesOf(traces), genS: time.Since(start).Seconds(), refs: map[refKey]*partition.Assignment{}}, nil
}

// rep runs one repetition: build the schedule from the seed, start
// fresh daemons, warm up, send the timed window, stop the daemons,
// validate. The window is the share-th part of the run's requests.
// rec, when not nil, gets a root span per request of the window.
func (w *serviceWorkload) rep(ctx context.Context, e *runEnv, in *serviceInputs, share int, rec *recorder) (*repResult, error) {
	r := &repResult{}
	t0 := time.Now()
	r.sched = w.build(in.states, newRNG(e.seed), max(1, w.opsPer10s*e.seconds/10/share))
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fleet, err := startFleet(e.samrd, r.sched.members, func(i int, urls []string) []string { return daemonFlags(w.config(dir, i, urls)) })
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stopFleet(fleet) //nolint:errcheck // already failing
		}
	}()
	urls := make([]string, len(fleet))
	for i, d := range fleet {
		urls[i] = d.url
	}
	cl := newClient(urls, r.sched.slots)
	for i := range r.sched.warm {
		r.samples = append(r.samples, cl.do(&r.sched.warm[i], true))
	}
	if r.before, err = scrapeAll(urls); err != nil {
		return nil, err
	}
	runtime.GC() // the generator starts the window with a clean heap
	r.setupS = time.Since(t0).Seconds()

	offset := int(e.seed % sampleEvery)
	start := time.Now()
	for i := range r.sched.run {
		var id int64
		if rec != nil {
			id = rec.begin(0, "request")
		}
		r.samples = append(r.samples, cl.do(&r.sched.run[i], (i+offset)%sampleEvery == 0))
		if rec != nil {
			rec.end(id)
		}
	}
	r.wallS = time.Since(start).Seconds()

	if r.after, err = scrapeAll(urls); err != nil {
		return nil, err
	}
	cl.http.CloseIdleConnections()
	stopped = true
	if r.cost, err = stopFleet(fleet); err != nil {
		return nil, err
	}
	validate(ctx, r, in.refs)
	return r, nil
}

// validate counts the operations and checks every kept answer in full:
// the fragments are an exact cover of the hierarchy and equal, one by
// one, what the same partitioner computes in this process; members of
// a fleet gave the same answer for the same key.
func validate(ctx context.Context, r *repResult, refs map[refKey]*partition.Assignment) {
	byKey := make(map[int]*server.PartitionResult)
	for i := range r.samples {
		s := &r.samples[i]
		r.attempted++
		if s.fail != "" {
			r.fail("%s %s step %d: %s", kindName(s.op.Kind), s.op.St.App, s.op.St.Step, s.fail)
			continue
		}
		if s.body == nil {
			continue
		}
		if s.op.Kind == opCreate {
			var resp server.SessionCreateResponse
			if err := json.Unmarshal(s.body, &resp); err != nil || resp.Signature != s.op.St.Sig {
				r.fail("create %s: answer does not carry the hierarchy's signature (%v)", s.op.St.App, err)
			}
			continue
		}
		k := refKey{s.op.St, s.op.NProcs}
		ref := refs[k]
		if ref == nil {
			p, err := server.ParsePartitioner(spec)
			if err == nil {
				ref, err = p.Partition(ctx, s.op.St.H, s.op.NProcs)
			}
			if err != nil {
				r.fail("reference partition: %v", err)
				continue
			}
			refs[k] = ref
		}
		res, err := checkAnswer(s, ref)
		if err != nil {
			r.fail("%s %s step %d nprocs %d: %v", kindName(s.op.Kind), s.op.St.App, s.op.St.Step, s.op.NProcs, err)
			continue
		}
		if s.op.Key == 0 {
			continue
		}
		// fleet-share: the members' answers for one key must agree.
		res.Cached, res.Cache = false, ""
		if first := byKey[s.op.Key]; first == nil {
			byKey[s.op.Key] = res
		} else if !reflect.DeepEqual(first, res) {
			r.fail("key %d: members disagree", s.op.Key)
		}
	}
}

func kindName(k opKind) string { return [...]string{"post", "create", "step"}[k] }

func checkAnswer(s *sample, ref *partition.Assignment) (*server.PartitionResult, error) {
	var resp server.PartitionResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("%d results, want 1", len(resp.Results))
	}
	res := &resp.Results[0]
	h := s.op.St.H
	if res.Signature != s.op.St.Sig || res.Signature != h.Signature().String() {
		return nil, fmt.Errorf("signature %.12s is not the hierarchy's", res.Signature)
	}
	if res.NProcs != s.op.NProcs || res.Cache != s.op.Want {
		return nil, fmt.Errorf("answer says nprocs %d cache %q, want %d %q", res.NProcs, res.Cache, s.op.NProcs, s.op.Want)
	}
	a := &partition.Assignment{NumProcs: res.NProcs, Fragments: make([]partition.Fragment, len(res.Fragments))}
	for i, f := range res.Fragments {
		b, err := boxOf(f.Box)
		if err != nil {
			return nil, err
		}
		a.Fragments[i] = partition.Fragment{Level: f.Level, Box: b, Owner: f.Owner}
	}
	if err := a.Validate(h); err != nil {
		return nil, err
	}
	if !slices.Equal(a.Fragments, ref.Fragments) {
		return nil, fmt.Errorf("fragments differ from the in-process partition")
	}
	if !slices.Equal(res.Loads, ref.Loads(h)) || res.Imbalance != ref.Imbalance(h) {
		return nil, fmt.Errorf("loads or imbalance differ from the in-process partition")
	}
	return res, nil
}

// boxOf converts a wire box, with the padding geom expects on unused
// axes.
func boxOf(w server.Box) (geom.Box, error) {
	if (w.Dim != 2 && w.Dim != 3) || len(w.Lo) != w.Dim || len(w.Hi) != w.Dim {
		return geom.Box{}, fmt.Errorf("malformed box %+v", w)
	}
	b := geom.Box{Dim: w.Dim, Hi: geom.IntVect{1, 1, 1}}
	copy(b.Lo[:], w.Lo)
	copy(b.Hi[:], w.Hi)
	return b, nil
}
