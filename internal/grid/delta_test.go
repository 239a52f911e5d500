package grid

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"samr/internal/geom"
)

// raceEnabled is set under the race detector, which makes sync.Pool
// drop items, so allocation counts mean nothing there.
var raceEnabled bool

// coldSignature is the signature's oracle: sha256 over a fresh
// canonical encoding, made in a buffer no other call shares.
func coldSignature(h *Hierarchy) geom.Signature {
	return geom.Signature(sha256.Sum256(h.AppendEncoding(nil)))
}

// coldLevelSignature is LevelSignature's oracle, likewise.
func coldLevelSignature(h *Hierarchy, l int) geom.Signature {
	return geom.Signature(sha256.Sum256(h.Levels[l].Boxes.AppendEncoding(nil)))
}

// checkStep fails unless next is step applied to prev by hand: prev's
// domain and ratio, len(step) levels, each kept level prev's own list
// (shared, not copied) and each replaced one the step's boxes, with
// Signature and every LevelSignature equal to their fresh-encoding
// oracles.
func checkStep(t *testing.T, prev, next *Hierarchy, step []LevelDelta) {
	t.Helper()
	if next.Domain != prev.Domain || next.RefRatio != prev.RefRatio || len(next.Levels) != len(step) {
		t.Fatalf("step of %d levels from %v gave %v", len(step), prev, next)
	}
	for l, d := range step {
		got := next.Levels[l].Boxes
		switch {
		case d.Keep && (len(got) != len(prev.Levels[l].Boxes) || len(got) > 0 && &got[0] != &prev.Levels[l].Boxes[0]):
			t.Fatalf("kept level %d is not the previous state's list", l)
		case !d.Keep && !slices.Equal(got, d.Boxes):
			t.Fatalf("replaced level %d holds %v, the step %v", l, got, d.Boxes)
		}
	}
	if got, want := next.Signature(), coldSignature(next); got != want {
		t.Fatalf("signature %s, fresh encoding %s", got, want)
	}
	for l := range next.Levels {
		if got, want := next.LevelSignature(l), coldLevelSignature(next, l); got != want {
			t.Fatalf("level %d sub-digest %s, fresh encoding %s", l, got, want)
		}
	}
}

// randomLevelBoxes builds a random valid patch set for level l of h:
// disjoint boxes nested in level l-1's refined footprint. It carves
// axis-aligned tiles out of one parent box, which keeps disjointness
// and nesting by construction.
func randomLevelBoxes(r *rand.Rand, h *Hierarchy, l int) geom.BoxList {
	parent := h.Levels[l-1].Boxes[r.Intn(len(h.Levels[l-1].Boxes))].Refine(h.RefRatio)
	n := 1 + r.Intn(3)
	var out geom.BoxList
	w := (parent.Hi[0] - parent.Lo[0]) / n
	if w < 1 {
		w, n = 1, 1
	}
	for i := 0; i < n; i++ {
		b := parent
		b.Lo[0] = parent.Lo[0] + i*w
		b.Hi[0] = b.Lo[0] + w
		if r.Intn(2) == 0 && b.Hi[1]-b.Lo[1] > 2 {
			b.Hi[1] -= r.Intn(b.Hi[1] - b.Lo[1] - 1)
		}
		if !b.Empty() {
			out = append(out, b)
		}
	}
	return out
}

// randomDelta builds a random valid step for h: every level kept or
// replaced, with a coin-flip level append/drop at the tail.
func randomDelta(r *rand.Rand, h *Hierarchy) []LevelDelta {
	n := len(h.Levels)
	switch {
	case n < 4 && r.Intn(3) == 0:
		n++ // append a level
	case n > 1 && r.Intn(4) == 0:
		n-- // drop the finest level
	}
	step := make([]LevelDelta, n)
	step[0] = Keep() // level 0 is static in a regrid sequence
	cand := &Hierarchy{Domain: h.Domain, RefRatio: h.RefRatio, Levels: []Level{h.Levels[0]}}
	for l := 1; l < n; l++ {
		replace := l >= len(h.Levels) || r.Intn(2) == 0
		// A kept level must still nest in its (possibly replaced)
		// parent; keeping is only safe when the parent is kept too.
		if !step[l-1].Keep {
			replace = true
		}
		if replace {
			step[l] = Replace(randomLevelBoxes(r, cand, l))
		} else {
			step[l] = Keep()
		}
		var lev Level
		if step[l].Keep {
			lev = h.Levels[l]
		} else {
			lev = Level{Boxes: step[l].Boxes}
		}
		cand.Levels = append(cand.Levels, lev)
	}
	return step
}

// TestApplyDeltaSignatureMatchesColdRehash is the delta property
// suite: over random hierarchies and random per-level delta sequences,
// every step WithDelta takes is the step applied by hand (checkStep:
// kept levels shared, domain and ratio unchanged, signatures equal to
// a fresh encoding's), the result is valid, and the previous state is
// untouched.
func TestApplyDeltaSignatureMatchesColdRehash(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		h := randomHierarchy(r)
		for step := 0; step < 12; step++ {
			d := randomDelta(r, h)
			before, levels := coldSignature(h), h.Clone().Levels
			next, err := h.WithDelta(d)
			if err != nil {
				t.Fatalf("trial %d step %d: WithDelta: %v", trial, step, err)
			}
			if err := next.Validate(); err != nil {
				t.Fatalf("trial %d step %d: delta produced invalid hierarchy: %v", trial, step, err)
			}
			checkStep(t, h, next, d)
			if h.Signature() != before || !sameLevels(h.Levels, levels) {
				t.Fatalf("trial %d step %d: WithDelta disturbed its input", trial, step)
			}
			h = next
		}
	}
}

// TestSignaturesUnderConcurrency signs random hierarchies from eight
// goroutines at once for half a second, Signature and LevelSignature
// interleaved: every result must equal sha256 of a fresh encoding. A
// buffer that went back to the pool before it was hashed would fail it
// when a goroutine is preempted between the two and the next on its
// processor takes and overwrites the buffer; half a second of
// preemptions makes that all but certain.
func TestSignaturesUnderConcurrency(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	hs := make([]*Hierarchy, 32)
	want := make([]geom.Signature, len(hs))
	wantLevels := make([][]geom.Signature, len(hs))
	for i := range hs {
		hs[i] = randomHierarchy(r)
		want[i] = coldSignature(hs[i])
		for l := range hs[i].Levels {
			wantLevels[i] = append(wantLevels[i], coldLevelSignature(hs[i], l))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	deadline := time.Now().Add(500 * time.Millisecond)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; time.Now().Before(deadline); round++ {
				i := (g*7 + round) % len(hs)
				if got := hs[i].Signature(); got != want[i] {
					errs <- fmt.Sprintf("goroutine %d: hierarchy %d signed %s, want %s", g, i, got, want[i])
					return
				}
				l := round % len(hs[i].Levels)
				if got := hs[i].LevelSignature(l); got != wantLevels[i][l] {
					errs <- fmt.Sprintf("goroutine %d: hierarchy %d level %d signed %s, want %s", g, i, l, got, wantLevels[i][l])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSignaturesAllocateNothing holds Signature, LevelSignature and
// SignLevels to the pooled scratch: no call allocates an encoding.
func TestSignaturesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	h := randomHierarchy(rand.New(rand.NewSource(64)))
	for name, f := range map[string]func(){
		"Signature":      func() { h.Signature() },
		"LevelSignature": func() { h.LevelSignature(len(h.Levels) - 1) },
		"SignLevels": func() {
			SignLevels(h.Domain, h.RefRatio, len(h.Levels), func(b []byte) []byte { return b })
		},
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f times a call", name, n)
		}
	}
}

// TestDeltaValidation walks the rejection surface: empty steps, keeps
// of nonexistent levels, overlap, nesting breaks from either side of a
// level boundary, and level-0 domain coverage.
func TestDeltaValidation(t *testing.T) {
	base := func() *Hierarchy {
		h := NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
		h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{geom.NewBox2(8, 8, 40, 40)}})
		h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{geom.NewBox2(20, 20, 60, 60)}})
		return h
	}
	solid := geom.NewBox2(20, 20, 60, 60)
	solid.Dim = 3
	cases := []struct {
		name string
		step []LevelDelta
	}{
		{"empty step", nil},
		{"3-D replacement", []LevelDelta{Keep(), Keep(), Replace(geom.BoxList{solid})}},
		{"keep beyond levels", []LevelDelta{Keep(), Keep(), Keep(), Keep()}},
		{"overlapping boxes", []LevelDelta{Keep(), Replace(geom.BoxList{
			geom.NewBox2(8, 8, 24, 24), geom.NewBox2(16, 16, 40, 40)}), Keep()}},
		{"child no longer nested", []LevelDelta{Keep(), Replace(geom.BoxList{geom.NewBox2(0, 0, 8, 8)}), Keep()}},
		{"replacement outside parent", []LevelDelta{Keep(), Keep(), Replace(geom.BoxList{geom.NewBox2(100, 100, 110, 110)})}},
		{"level 0 uncovers domain", []LevelDelta{Replace(geom.BoxList{geom.NewBox2(0, 0, 16, 16)}), Keep(), Keep()}},
	}
	for _, tc := range cases {
		h := base()
		before := h.Signature()
		if _, err := h.WithDelta(tc.step); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if h.Signature() != before {
			t.Errorf("%s: failed delta disturbed the hierarchy", tc.name)
		}
	}

	// And the accepting cases around the same edges: append, drop, and
	// a pure-keep step (signature unchanged).
	h := base()
	sig := h.Signature()
	h, err := h.WithDelta([]LevelDelta{Keep(), Keep(), Keep()})
	if err != nil {
		t.Fatalf("pure-keep step rejected: %v", err)
	}
	if h.Signature() != sig {
		t.Fatal("pure-keep step changed the signature")
	}
	if h, err = h.WithDelta([]LevelDelta{Keep(), Keep()}); err != nil {
		t.Fatalf("drop-level step rejected: %v", err)
	}
	if len(h.Levels) != 2 || h.Signature() == sig {
		t.Fatal("drop-level step did not take effect")
	}
	if h, err = h.WithDelta([]LevelDelta{Keep(), Keep(), Replace(geom.BoxList{geom.NewBox2(20, 20, 60, 60)})}); err != nil {
		t.Fatalf("append-level step rejected: %v", err)
	}
	if h.Signature() != sig || coldSignature(h) != sig {
		t.Fatal("round trip back to the base state changed the signature")
	}
}

// deltaFromBytes decodes one session step against h from the front of
// data and returns it with the bytes it did not read (a byte past the
// end reads as 0). The first byte sets the step's level count, 0 to 5.
// Each level then takes an op byte: a multiple of 3 keeps the level; 1
// mod 3 replaces it with its anchors — the domain for level 0, else the
// step's own level l-1 refined — which nest by construction; 2 mod 3
// replaces it with one to three boxes placed by four bytes each in and
// around the first anchor (a signed offset per axis from its corner, an
// extent per axis), which are sometimes valid and otherwise wrong the
// ways a client can be wrong: overlapping, outside the level domain,
// not nested, not covering the domain, empty.
func deltaFromBytes(h *Hierarchy, data []byte) ([]LevelDelta, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	step := make([]LevelDelta, next()%6)
	for l := range step {
		op := next()
		if op%3 == 0 {
			step[l] = Keep()
			continue
		}
		anchors := geom.BoxList{h.Domain}
		if l > 0 {
			parent := step[l-1].Boxes
			if step[l-1].Keep && l-1 < len(h.Levels) {
				parent = h.Levels[l-1].Boxes
			}
			anchors = parent.Refine(h.RefRatio)
		}
		if op%3 == 1 || len(anchors) == 0 {
			step[l] = Replace(anchors)
			continue
		}
		a := anchors[0]
		var boxes geom.BoxList
		for n := 1 + int(op/3)%3; n > 0; n-- {
			x := a.Lo[0] + int(int8(next()))%(a.Size(0)+1)
			y := a.Lo[1] + int(int8(next()))%(a.Size(1)+1)
			boxes = append(boxes, geom.NewBox2(x, y, x+int(next())%(a.Size(0)+1), y+int(next())%(a.Size(1)+1)))
		}
		step[l] = Replace(boxes)
	}
	return step, data
}

// sameLevels reports whether a and b hold the same boxes level by level.
func sameLevels(a, b []Level) bool {
	return slices.EqualFunc(a, b, func(x, y Level) bool { return slices.Equal(x.Boxes, y.Boxes) })
}

// FuzzApplyDelta: from a random valid hierarchy (seeded), up to eight
// fuzzed steps applied through WithDelta. Each step either refuses, or
// yields a state that Validate accepts and that is the step applied by
// hand (checkStep: kept levels shared, domain and ratio unchanged,
// signatures equal to a fresh encoding's); either way the receiver's
// signature and levels are as they were. An accepted step is the base
// of the next.
func FuzzApplyDelta(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{2, 0, 1})                         // keep level 0, replace level 1 by its anchors
	f.Add(int64(3), []byte{1, 0, 1, 0})                      // drop every refined level, then keep
	f.Add(int64(4), []byte{5, 0, 0, 0, 0, 0})                // keep a level the base lacks
	f.Add(int64(5), []byte{3, 0, 1, 2, 1, 1, 2, 2})          // replace level 2 with a box inside its anchor
	f.Add(int64(6), []byte{2, 2, 0, 0, 4, 4, 1})             // level 0 no longer covers the domain
	f.Add(int64(7), []byte{2, 0, 5, 255, 255, 9, 9, 1, 1})   // overlapping boxes poking out of the anchor
	f.Add(int64(8), []byte{0})                               // no levels
	f.Add(int64(9), []byte{3, 0, 0, 1, 3, 0, 0, 2, 0, 0, 1}) // refine, then a two-level chain
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		h := randomValid(rand.New(rand.NewSource(seed)))
		for steps := 0; steps < 8 && len(data) > 0; steps++ {
			var step []LevelDelta
			step, data = deltaFromBytes(h, data)
			before, levels := coldSignature(h), h.Clone().Levels
			next, err := h.WithDelta(step)
			if h.Signature() != before || !sameLevels(h.Levels, levels) {
				t.Fatalf("step %d: WithDelta (err %v) disturbed its receiver", steps, err)
			}
			if err != nil {
				continue
			}
			if err := next.Validate(); err != nil {
				t.Fatalf("step %d: accepted step %v gives an invalid hierarchy: %v", steps, step, err)
			}
			checkStep(t, h, next, step)
			h = next
		}
	})
}

// BenchmarkSignatureDeltaVsFull measures what a session step still
// saves over a full repost once the signature is computed on demand:
// step (WithDelta's check of the replaced level, then Signature)
// against repost (Validate of the whole hierarchy, then Signature), on
// a deep synthetic hierarchy whose steps replace only the finest of its
// 258 boxes. Both halves hash the whole hierarchy; the difference is
// the structural check of the levels a step keeps.
func BenchmarkSignatureDeltaVsFull(b *testing.B) {
	build := func() *Hierarchy {
		h := NewHierarchy(geom.NewBox2(0, 0, 256, 256), 2)
		var l1 geom.BoxList
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				l1 = append(l1, geom.NewBox2(i*32, j*32, i*32+32, j*32+32))
			}
		}
		h.Levels = append(h.Levels, Level{Boxes: l1})
		h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{geom.NewBox2(100, 100, 400, 400)}})
		return h
	}
	finest := func(i int) geom.BoxList {
		x := (i % 64) * 4
		return geom.BoxList{geom.NewBox2(100+x, 100, 400+x, 400)}
	}
	b.Run("step", func(b *testing.B) {
		h := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next, err := h.WithDelta([]LevelDelta{Keep(), Keep(), Replace(finest(i))})
			if err != nil {
				b.Fatal(err)
			}
			h = next
			_ = h.Signature()
		}
	})
	b.Run("repost", func(b *testing.B) {
		h := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Levels[2] = Level{Boxes: finest(i)}
			if err := h.Validate(); err != nil {
				b.Fatal(err)
			}
			_ = h.Signature()
		}
	})
}
