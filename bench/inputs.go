package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"samr/internal/amr"
	"samr/internal/apps"
	"samr/internal/grid"
	"samr/internal/server"
	"samr/internal/trace"
)

// scale is the size of the application runs a benchmark invocation
// generates its inputs from.
type scale struct {
	Name                string
	Base, Levels, Steps int
}

var (
	// benchScale is the paper's driver configuration (32x32 base grid,
	// 5 levels of factor-2 refinement, regrid every 4 steps) cut to 16
	// of its 100 coarse steps: the hierarchies are paper-sized from the
	// first snapshot on, and generating the four applications takes
	// about 2 s instead of 18 s, which is what lets a run repeat its
	// set-up and still end inside the driver's time budget.
	benchScale = scale{Name: "paper-16-steps", Base: 32, Levels: 5, Steps: 16}
	// quickScale is samrbench -quick: the smoke-test scale. Numbers
	// measured at it are not comparable with benchScale numbers.
	quickScale = scale{Name: "quick", Base: 16, Levels: 3, Steps: 20}
)

func (s scale) config() amr.Config {
	cfg := apps.PaperConfig()
	cfg.BaseSize = s.Base
	cfg.MaxLevels = s.Levels
	return cfg
}

// generateTraces runs the four applications at scale sc.
func generateTraces(ctx context.Context, sc scale) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, len(apps.Names))
	for i, app := range apps.Names {
		tr, err := apps.Generate(ctx, app, sc.config(), sc.Steps)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", app, err)
		}
		out[i] = tr
	}
	return out, nil
}

// state is one regrid state of one application: what a SAMR client
// would ask the daemon to partition.
type state struct {
	App  string
	Step int
	H    *grid.Hierarchy
	Sig  string
	Wire server.Hierarchy
}

// statesOf lists each application's snapshots in step order, keeping
// only the first occurrence of a hierarchy over all applications. A
// repeated hierarchy would be a result-cache hit in the middle of a
// workload that is defined by never hitting.
func statesOf(traces []*trace.Trace) [][]*state {
	seen := make(map[string]bool)
	out := make([][]*state, len(traces))
	for i, tr := range traces {
		for _, snap := range tr.Snapshots {
			sig := snap.H.Signature().String()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			out[i] = append(out[i], &state{App: tr.App, Step: snap.Step, H: snap.H, Sig: sig, Wire: server.FromHierarchy(snap.H)})
		}
	}
	return out
}

func countStates(apps [][]*state) int {
	n := 0
	for _, a := range apps {
		n += len(a)
	}
	return n
}

type opKind byte

const (
	opPost   opKind = iota // POST /v1/partition
	opCreate               // POST /v1/session
	opStep                 // POST /v1/session/{id}/step
)

// op is one pre-encoded request of a schedule.
type op struct {
	Kind   opKind
	Member int    // index of the daemon it is sent to
	Slot   int    // session slot (create stores the token, step uses it)
	Body   []byte // JSON, encoded before the clock starts
	Want   string // required X-Samr-Cache disposition; "" for creates
	Timed  bool   // counts towards the op_* metrics
	St     *state // the hierarchy the daemon must answer for
	Prev   *state // steps: the session's state before this delta
	NProcs int
	Key    int // fleet-share: 1-based index of the key, to compare the members' answers
}

// spec is the partitioner every service request names: the paper's
// hybrid, the default choice of the meta-partitioner.
const spec = "nature+fable"

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types always encode
	}
	return b
}

func postOp(st *state, nprocs, member int, want string, timed bool) op {
	return op{Kind: opPost, Member: member, Want: want, Timed: timed, St: st, NProcs: nprocs,
		Body: mustJSON(server.PartitionRequest{Hierarchy: &st.Wire, Partitioner: spec, NProcs: nprocs})}
}

// keptLevels reports, per level of next, whether its patch set survived
// from prev: what a session client sends as "keep".
func keptLevels(prev, next *state) []bool {
	kept := make([]bool, len(next.H.Levels))
	for l := range kept {
		kept[l] = l < len(prev.H.Levels) && slices.Equal(prev.H.Levels[l].Boxes, next.H.Levels[l].Boxes)
	}
	return kept
}

// stepBody encodes the delta prev -> next as a session client would:
// surviving levels are "keep", the rest carry their boxes.
func stepBody(prev, next *state) []byte {
	req := server.SessionStepRequest{Levels: make([]server.LevelOp, len(next.H.Levels))}
	for l, kept := range keptLevels(prev, next) {
		if kept {
			req.Levels[l] = server.LevelOp{Op: server.LevelKeep}
		} else {
			req.Levels[l] = server.LevelOp{Op: server.LevelReplace, Boxes: next.Wire.Levels[l]}
		}
	}
	return mustJSON(req)
}

// nprocsLadder is the processor counts a workload varies to make
// distinct cache keys out of one hierarchy: 16, the paper's validation
// count, and upwards in fours.
func nprocsLadder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 16 + 4*i
	}
	return out
}

// schedule is the request sequence of one repetition: warm is sent
// during set-up with every answer validated, run inside the timed
// window.
type schedule struct {
	warm, run []op
	members   int
	slots     int
}

// cacheSize is the daemon's default -cache: the workloads are sized
// against it.
const cacheSize = 256

// regridSchedule builds streaming sessions over every application: one
// create and then one delta step per later state. A pass opens one
// session per application (seed-shuffled order) at one processor
// count; passes walk a ladder of counts long enough that a cycle holds
// more distinct keys than the result cache, so every step is a miss
// however many cycles run.
func regridSchedule(states [][]*state, rng *rand.Rand, targetOps int) schedule {
	perRung := countStates(states) - len(states) // steps: every state but each session's first
	ladder := nprocsLadder(max(4, cacheSize/perRung+2))
	stepsPerCycle := len(ladder) * perRung
	cycles := max(1, (targetOps+stepsPerCycle/2)/stepsPerCycle)
	s := schedule{members: 1}
	for c := 0; c < cycles; c++ {
		for _, nprocs := range ladder {
			for _, a := range rng.Perm(len(states)) {
				sts := states[a]
				s.run = append(s.run, op{Kind: opCreate, Slot: s.slots, St: sts[0], NProcs: nprocs,
					Body: mustJSON(server.SessionCreateRequest{Hierarchy: &sts[0].Wire, Partitioner: spec, NProcs: nprocs})})
				for i := 1; i < len(sts); i++ {
					s.run = append(s.run, op{Kind: opStep, Slot: s.slots, Want: server.CacheMiss, Timed: true,
						St: sts[i], Prev: sts[i-1], NProcs: nprocs, Body: stepBody(sts[i-1], sts[i])})
				}
				s.slots++
			}
		}
	}
	return s
}

// repeatSchedule posts a hot set that fits the result cache once during
// set-up, then posts it again and again in a fresh seeded order: every
// timed request must be a hit, and every key is asked for equally
// often, so the work does not depend on the seed.
func repeatSchedule(states [][]*state, rng *rand.Rand, targetOps int) schedule {
	total := countStates(states)
	ladder := nprocsLadder(max(1, (cacheSize-16)/total))
	s := schedule{members: 1}
	for _, nprocs := range ladder {
		for _, sts := range states {
			for _, st := range sts {
				s.warm = append(s.warm, postOp(st, nprocs, 0, server.CacheMiss, false))
			}
		}
	}
	rounds := max(1, (targetOps+len(s.warm)/2)/len(s.warm))
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(s.warm)) {
			o := s.warm[i]
			o.Want, o.Timed = server.CacheHit, true
			s.run = append(s.run, o)
		}
	}
	return s
}

// fleetMembers is the size of the fleet-share fleet.
const fleetMembers = 3

// fleetSchedule posts fresh keys to the three members in rotation: the
// first member computes and shares the result, the other two must be
// served by the tier. Only the tier-served posts are timed operations:
// a compute-bound miss is regrid-sessions' subject, and a median taken
// over a mix of the two would sit in the thin upper tail of the fast
// mode, where it moves with every breath. The misses still happen inside
// the window, so their cost shows in ops_per_s and cpu_ms_per_op, and
// their latency is the per-layer metric fleet.miss_p50_ms.
func fleetSchedule(states [][]*state, rng *rand.Rand, targetOps int) schedule {
	total := countStates(states)
	ladder := nprocsLadder(max(1, (targetOps/fleetMembers+total/2)/total))
	type key struct {
		st     *state
		nprocs int
	}
	var keys []key
	for _, nprocs := range ladder {
		for _, sts := range states {
			for _, st := range sts {
				keys = append(keys, key{st, nprocs})
			}
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	s := schedule{members: fleetMembers}
	for i, k := range keys {
		for j := 0; j < fleetMembers; j++ {
			want := server.CacheTier
			if j == 0 {
				want = server.CacheMiss
			}
			o := postOp(k.st, k.nprocs, (i+j)%fleetMembers, want, j > 0)
			o.Key = i + 1
			s.run = append(s.run, o)
		}
	}
	return s
}

// hash identifies a schedule: same seed, same hash.
func (s schedule) hash() string {
	h := sha256.New()
	var n [8]byte
	for _, ops := range [][]op{s.warm, s.run} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(ops)))
		h.Write(n[:])
		for _, o := range ops {
			h.Write([]byte{byte(o.Kind), byte(o.Member)})
			binary.LittleEndian.PutUint64(n[:], uint64(o.Slot))
			h.Write(n[:])
			binary.LittleEndian.PutUint64(n[:], uint64(len(o.Body)))
			h.Write(n[:])
			h.Write(o.Body)
			h.Write([]byte(o.Want))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
