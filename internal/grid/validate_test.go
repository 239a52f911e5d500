package grid

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"samr/internal/geom"
)

// validateReference is Validate as it shipped before the volume
// equalities: pairwise Disjoint, and CoversBox's subtraction lists for
// cover and nesting. It knows nothing of maxCoord, so it is an oracle
// only for hierarchies checkExtent accepts.
func validateReference(h *Hierarchy) error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("grid: hierarchy has no levels")
	}
	if h.RefRatio < 2 {
		return fmt.Errorf("grid: refinement ratio %d < 2", h.RefRatio)
	}
	if err := planar(h.Domain); err != nil {
		return fmt.Errorf("grid: domain: %w", err)
	}
	for l, lev := range h.Levels {
		for _, b := range lev.Boxes {
			if err := planar(b); err != nil {
				return fmt.Errorf("grid: level %d: %w", l, err)
			}
		}
	}
	if !h.Levels[0].Boxes.CoversBox(h.Domain) {
		return fmt.Errorf("grid: level 0 does not cover the domain %v", h.Domain)
	}
	for l, lev := range h.Levels {
		if !lev.Boxes.Disjoint() {
			return fmt.Errorf("grid: level %d has overlapping boxes", l)
		}
		ld := h.LevelDomain(l)
		for _, b := range lev.Boxes {
			if !ld.ContainsBox(b) {
				return fmt.Errorf("grid: level %d box %v outside level domain %v", l, b, ld)
			}
		}
		if l > 0 {
			parent := h.Levels[l-1].Boxes.Refine(h.RefRatio)
			for _, b := range lev.Boxes {
				if !parent.CoversBox(b) {
					return fmt.Errorf("grid: level %d box %v not nested in level %d", l, b, l-1)
				}
			}
		}
	}
	return nil
}

// validateDeltaReference is the check WithDelta ran before it shared
// Validate's: the same subtraction-list tests over the replaced levels
// and the boundaries they touch.
func validateDeltaReference(h *Hierarchy, changed []bool) error {
	if h.RefRatio < 2 {
		return fmt.Errorf("grid: refinement ratio %d < 2", h.RefRatio)
	}
	for l, lev := range h.Levels {
		if changed[l] {
			if !lev.Boxes.Disjoint() {
				return fmt.Errorf("grid: delta level %d has overlapping boxes", l)
			}
			ld := h.LevelDomain(l)
			for _, b := range lev.Boxes {
				if err := planar(b); err != nil {
					return fmt.Errorf("grid: delta level %d: %w", l, err)
				}
				if !ld.ContainsBox(b) {
					return fmt.Errorf("grid: delta level %d box %v outside level domain %v", l, b, ld)
				}
			}
			if l == 0 && !lev.Boxes.CoversBox(h.Domain) {
				return fmt.Errorf("grid: delta level 0 does not cover the domain %v", h.Domain)
			}
		}
		if l > 0 && (changed[l] || changed[l-1]) {
			parent := h.Levels[l-1].Boxes.Refine(h.RefRatio)
			for _, b := range lev.Boxes {
				if !parent.CoversBox(b) {
					return fmt.Errorf("grid: delta level %d box %v not nested in level %d", l, b, l-1)
				}
			}
		}
	}
	return nil
}

// sameRefusal compares check's answer with a reference's. The verdict
// must be the same. So must the message, with two exceptions, both for
// a hierarchy that has several faults at once: check looks at every
// box's Dim before any geometry (the delta reference looked at overlap
// first), and decides level 0's cover after its disjointness and
// containment, from which the volume test draws its meaning (Validate's
// reference decided cover first).
func sameRefusal(got, want error) error {
	switch {
	case (got == nil) != (want == nil):
	case got == nil || got.Error() == want.Error():
		return nil
	case strings.Contains(got.Error(), "hierarchies are 2-D"):
		return nil
	case strings.Contains(want.Error(), "level 0 does not cover") &&
		(strings.Contains(got.Error(), "level 0 has overlapping boxes") || strings.Contains(got.Error(), "level 0 box")):
		return nil
	}
	return fmt.Errorf("check says %v, the reference %v", got, want)
}

// tile appends a random subdivision of b into disjoint boxes that
// cover it, keeping a piece with probability keep.
func tile(r *rand.Rand, b geom.Box, keep float64, out geom.BoxList) geom.BoxList {
	d := r.Intn(2)
	if b.Size(d) < 2 || r.Intn(4) == 0 {
		if r.Float64() < keep {
			out = append(out, b)
		}
		return out
	}
	lo, hi := b.ChopDim(d, b.Lo[d]+1+r.Intn(b.Size(d)-1))
	return tile(r, hi, keep, tile(r, lo, keep, out))
}

// randomValid builds a valid hierarchy of one to four levels with
// several boxes on each: level 0 tiles a domain anywhere near the
// origin, and each finer level tiles parts of some refined parent
// boxes.
func randomValid(r *rand.Rand) *Hierarchy {
	x, y := r.Intn(17)-8, r.Intn(17)-8
	domain := geom.NewBox2(x, y, x+2+r.Intn(10), y+2+r.Intn(10))
	h := &Hierarchy{Domain: domain, RefRatio: 2 + r.Intn(2)}
	h.Levels = append(h.Levels, Level{Boxes: tile(r, domain, 1, nil)})
	for l := 1; l < 1+r.Intn(4); l++ {
		var boxes geom.BoxList
		for _, p := range h.Levels[l-1].Boxes {
			if r.Intn(2) == 0 {
				boxes = tile(r, p.Refine(h.RefRatio), 0.7, boxes)
			}
		}
		r.Shuffle(len(boxes), func(i, j int) { boxes[i], boxes[j] = boxes[j], boxes[i] })
		h.Levels = append(h.Levels, Level{Boxes: boxes})
	}
	return h
}

// faults are the ways plant damages a box list, in place or by
// returning a changed one.
var faults = []func(r *rand.Rand, bl geom.BoxList) geom.BoxList{
	// a duplicate
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList { return append(bl, bl[r.Intn(len(bl))]) },
	// one box grown into its neighbours
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList {
		i := r.Intn(len(bl))
		bl[i] = bl[i].Grow(1 + r.Intn(2))
		return bl
	},
	// one box shifted a few cells, or far outside everything
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList {
		i, d, by := r.Intn(len(bl)), r.Intn(2), []int{-4, -1, 1, 3, 1000}[r.Intn(5)]
		bl[i].Lo[d] += by
		bl[i].Hi[d] += by
		return bl
	},
	// one box missing
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList {
		i := r.Intn(len(bl))
		return append(bl[:i], bl[i+1:]...)
	},
	// one box a cell short, or of zero extent
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList {
		i, d := r.Intn(len(bl)), r.Intn(2)
		bl[i].Hi[d] = []int{bl[i].Hi[d] - 1, bl[i].Lo[d]}[r.Intn(2)]
		return bl
	},
	// one box inverted
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList {
		i := r.Intn(len(bl))
		bl[i].Lo, bl[i].Hi = bl[i].Hi, bl[i].Lo
		return bl
	},
	// an extra box with no cells: harmless wherever it lies
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList { return append(bl, geom.NewBox2(3, 3, 3, 7)) },
	// one box of another dimensionality
	func(r *rand.Rand, bl geom.BoxList) geom.BoxList {
		bl[r.Intn(len(bl))].Dim = []int{0, 1, 3}[r.Intn(3)]
		return bl
	},
}

// plant damages level l of h with one random fault, if the level has a
// box to damage.
func plant(r *rand.Rand, h *Hierarchy, l int) {
	if bl := h.Levels[l].Boxes; len(bl) > 0 {
		h.Levels[l].Boxes = faults[r.Intn(len(faults))](r, bl)
	}
}

// kindOf files a refusal under the invariant it names.
func kindOf(err error) string {
	if err == nil {
		return "valid"
	}
	for _, k := range []string{"overlapping", "outside level domain", "not nested", "does not cover", "2-D"} {
		if strings.Contains(err.Error(), k) {
			return k
		}
	}
	return err.Error()
}

// TestValidateMatchesReference: valid hierarchies, the same with one
// planted fault, and with two, get from Validate the verdict and the
// message the subtraction-list body gives them.
func TestValidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	seen := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		h := randomValid(r)
		if err := h.Validate(); err != nil {
			t.Fatalf("trial %d: generator built an invalid hierarchy: %v\n%v", trial, err, h)
		}
		for n := r.Intn(3); n > 0; n-- {
			plant(r, h, r.Intn(len(h.Levels)))
		}
		got, want := h.Validate(), validateReference(h)
		if err := sameRefusal(got, want); err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, h.Levels)
		}
		if got == nil || got.Error() == want.Error() {
			seen[kindOf(got)]++
		}
	}
	for _, k := range []string{"valid", "overlapping", "outside level domain", "not nested", "does not cover", "2-D"} {
		if seen[k] < 20 {
			t.Errorf("only %d hierarchies compared word for word came out %q", seen[k], k)
		}
	}
}

// TestDeltaCheckMatchesReference walks random delta chains: each step
// keeps or replaces every level, a replacement being a fresh valid
// level or a damaged one, and WithDelta must accept or refuse it as the
// old per-level check did, in the same words; an accepted step becomes
// the next step's base.
func TestDeltaCheckMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	seen := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		h := randomValid(r)
		h.TrackSignature()
		for step := 0; step < 10; step++ {
			n := max(1, min(len(h.Levels)+r.Intn(3)-1, 4))
			cand := &Hierarchy{Domain: h.Domain, RefRatio: h.RefRatio, Levels: make([]Level, n)}
			delta := make([]LevelDelta, n)
			changed := make([]bool, n)
			for l := range delta {
				if l < len(h.Levels) && r.Intn(2) == 0 {
					delta[l], cand.Levels[l] = Keep(), h.Levels[l]
					continue
				}
				// A level tiled under the candidate's own parent, so
				// that most replacements nest.
				var boxes geom.BoxList
				if l == 0 {
					boxes = tile(r, h.Domain, 1, nil)
				} else {
					for _, p := range cand.Levels[l-1].Boxes {
						if r.Intn(2) == 0 {
							boxes = tile(r, p.Refine(h.RefRatio), 0.7, boxes)
						}
					}
				}
				delta[l], cand.Levels[l], changed[l] = Replace(boxes), Level{Boxes: boxes}, true
				if r.Intn(6) == 0 {
					plant(r, cand, l)
					delta[l].Boxes = cand.Levels[l].Boxes
				}
			}
			want := validateDeltaReference(cand, changed)
			next, got := h.WithDelta(delta)
			if err := sameRefusal(got, want); err != nil {
				t.Fatalf("trial %d step %d: %v\nfrom %v\nstep %v", trial, step, err, h.Levels, delta)
			}
			if got == nil || got.Error() == want.Error() {
				seen[kindOf(got)]++
			}
			if got == nil {
				h = next
			}
		}
	}
	for _, k := range []string{"valid", "overlapping", "outside level domain", "not nested", "does not cover", "2-D"} {
		if seen[k] < 10 {
			t.Errorf("only %d steps compared word for word came out %q", seen[k], k)
		}
	}
}

// TestValidateBoundsArithmetic: the finest level's index space must fit
// maxCoord on both axes, or no volume and no level domain downstream
// means what it says.
func TestValidateBoundsArithmetic(t *testing.T) {
	levels := func(domain geom.Box, ratio, n int) *Hierarchy {
		h := NewHierarchy(domain, ratio)
		for l := 1; l < n; l++ {
			h.Levels = append(h.Levels, Level{})
		}
		return h
	}
	cases := []struct {
		name string
		h    *Hierarchy
		want string // "" accepts
	}{
		{"largest accepted", levels(geom.NewBox2(-1<<28, -1<<28, 1<<28, 1<<28), 2, 3), ""},
		{"largest accepted, ratio 2^15", levels(geom.NewBox2(-1, -1, 1, 1), 1<<15, 3), ""},
		{"one level too many", levels(geom.NewBox2(-1<<28, -1<<28, 1<<28, 1<<28), 2, 4), "level 3 index space exceeds ±2^30 on axis 0"},
		{"one cell too wide on y", levels(geom.NewBox2(0, 0, 1<<28, 1<<28+1), 2, 3), "level 2 index space exceeds ±2^30 on axis 1"},
		{"ratio 2^32 wraps the level domain", levels(geom.NewBox2(0, 0, 4, 4), 1<<32, 3), "level 1 index space exceeds ±2^30 on axis 0"},
		{"ratio 2^62", levels(geom.NewBox2(0, 0, 4, 4), 1<<62, 2), "level 1 index space exceeds ±2^30 on axis 0"},
		{"2^62-wide domain", levels(geom.NewBox2(-1<<61, 0, 1<<61, 4), 2, 1), "level 0 index space exceeds ±2^30 on axis 0"},
	}
	for _, tc := range cases {
		err := tc.h.Validate()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}

	// A 2^62-wide box on a level whose domain fits: refused for where
	// it lies, before anything multiplies its extents. Five of them
	// would sum to the level domain's volume modulo 2^64.
	h := levels(geom.NewBox2(0, 0, 1<<30, 1<<30), 2, 1)
	wide := geom.NewBox2(-1<<61, 0, 1<<61, 1<<30)
	h.Levels[0].Boxes = geom.BoxList{wide, wide, wide, wide, wide}
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Errorf("five 2^62-wide boxes: Validate = %v", err)
	}
	h.Levels[0].Boxes = geom.BoxList{wide}
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "outside level domain") {
		t.Errorf("one 2^62-wide box: Validate = %v", err)
	}

	// A step that adds the level that no longer fits is refused too.
	h = levels(geom.NewBox2(-1<<28, -1<<28, 1<<28, 1<<28), 2, 3)
	if _, err := h.WithDelta([]LevelDelta{Keep(), Keep(), Keep(), Replace(nil)}); err == nil || !strings.Contains(err.Error(), "level 3 index space") {
		t.Errorf("step adding a fourth level: WithDelta = %v", err)
	}
}

// hierarchyFromBytes decodes fuzz input: a five-byte header (ratio,
// level count, a shift applied to every coordinate, domain size), then
// six bytes per box (level, dim, corner, size). Every byte string is
// some hierarchy.
func hierarchyFromBytes(data []byte) *Hierarchy {
	var hdr [5]byte
	copy(hdr[:], data)
	data = data[min(len(data), len(hdr)):]
	shift := uint(hdr[2]) % 64
	coord := func(b byte) int { return int(int8(b)) << shift }
	h := &Hierarchy{
		Domain:   geom.NewBox2(0, 0, coord(hdr[3]%32), coord(hdr[4]%32)),
		RefRatio: int(hdr[0]) % 5,
		Levels:   make([]Level, hdr[1]%5),
	}
	for ; len(data) >= 6 && len(h.Levels) > 0; data = data[6:] {
		l := int(data[0]) % len(h.Levels)
		x, y := coord(data[2]), coord(data[3])
		b := geom.NewBox2(x, y, x+coord(data[4]%40), y+coord(data[5]%40))
		if data[1]%16 == 0 {
			b.Dim = int(data[1]/16) % 4
		}
		h.Levels[l].Boxes = append(h.Levels[l].Boxes, b)
	}
	return h
}

// bytesFromHierarchy encodes what hierarchyFromBytes can represent of
// h (a domain at the origin, byte-sized coordinates), for seeds.
func bytesFromHierarchy(h *Hierarchy) []byte {
	out := []byte{byte(h.RefRatio), byte(len(h.Levels)), 0, byte(h.Domain.Size(0)), byte(h.Domain.Size(1))}
	for l, lev := range h.Levels {
		for _, b := range lev.Boxes {
			out = append(out, byte(l), 1, byte(b.Lo[0]), byte(b.Lo[1]), byte(b.Size(0)), byte(b.Size(1)))
		}
	}
	return out
}

// FuzzValidate: Validate never panics, and on every hierarchy whose
// index spaces fit maxCoord it agrees with validateReference.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 8, 8, 0, 1, 0, 0, 8, 8})
	f.Add([]byte{2, 1, 61, 1, 1, 0, 1, 0, 0, 1, 1})                                           // 2^61-wide domain
	f.Add([]byte{2, 2, 0, 8, 8, 0, 1, 0, 0, 8, 8, 1, 1, 2, 2, 4, 4, 1, 1, 4, 4, 4, 4})        // overlap on level 1
	f.Add([]byte{3, 2, 0, 8, 8, 0, 1, 0, 0, 4, 8, 0, 1, 4, 0, 4, 8, 1, 16, 3, 3, 6, 6})       // dim 1
	f.Add([]byte{2, 3, 0, 4, 4, 0, 1, 0, 0, 4, 4, 1, 1, 0, 0, 8, 8, 2, 1, 15, 15, 2, 2})      // not nested
	f.Add([]byte{2, 2, 0, 8, 8, 0, 1, 0, 0, 8, 8, 1, 1, 12, 12, 6, 6, 1, 1, 0, 0, 0, 5})      // outside, empty box
	f.Add([]byte{2, 1, 0, 8, 8, 0, 1, 0, 0, 8, 4, 0, 1, 0, 4, 7, 4})                          // uncovered
	f.Add([]byte{2, 2, 30, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1})                         // level 1 does not fit
	f.Add([]byte{2, 1, 0, 8, 8, 0, 1, 0, 0, 8, 8, 0, 1, 0, 0, 8, 8, 0, 1, 0, 0, 8, 8})        // duplicates
	f.Add([]byte{2, 1, 62, 1, 1, 0, 1, 255, 0, 2, 1, 0, 1, 255, 0, 2, 1, 0, 1, 255, 0, 2, 1}) // wide duplicates
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 8; i++ {
		h := randomValid(r)
		h.Domain = geom.NewBox2(0, 0, h.Domain.Size(0), h.Domain.Size(1))
		h.Levels = h.Levels[:1]
		h.Levels[0].Boxes = tile(r, h.Domain, 1, nil)
		for l := 1; l < 3; l++ {
			h.Levels = append(h.Levels, Level{Boxes: tile(r, h.Levels[l-1].Boxes[0].Refine(h.RefRatio), 0.8, nil)})
		}
		f.Add(bytesFromHierarchy(h))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := hierarchyFromBytes(data)
		got := h.Validate()
		if len(h.Levels) == 0 || h.RefRatio < 2 || h.checkExtent() != nil {
			if got == nil {
				t.Fatalf("Validate accepted %v", h)
			}
			return
		}
		if err := sameRefusal(got, validateReference(h)); err != nil {
			t.Fatalf("%v\n%v", err, h.Levels)
		}
	})
}

// strips is the hierarchy on which an index-based check was quadratic: a
// one-cell base domain, refinement ratio 2^15, and n one-row strips on
// level 1, two to a row, each half the level wide. At 65536 strips its
// wire form is a 3 MB body.
func strips(n int) *Hierarchy {
	const ratio = 1 << 15
	h := NewHierarchy(geom.NewBox2(0, 0, 1, 1), ratio)
	boxes := make(geom.BoxList, n)
	for i := range boxes {
		x := i % 2 * ratio / 2
		boxes[i] = geom.NewBox2(x, i/2, x+ratio/2, i/2+1)
	}
	h.Levels = append(h.Levels, Level{Boxes: boxes})
	return h
}

// TestValidateIsNotQuadratic: wide boxes defeat a spatial index's bins,
// and an index-based check spent 1.04 s on 16384 strips and 21.7 s on
// 65536. Each quadrupling of the strips must cost at most ten times as
// much (sixteen is quadratic; two doublings leave room for a noisy
// one), and 65536 must validate in under a second. The best of three
// runs is timed.
func TestValidateIsNotQuadratic(t *testing.T) {
	const ceiling = time.Second
	var times []time.Duration
	for n := 1 << 12; n <= 1<<16; n *= 2 {
		h := strips(n)
		best := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			if err := h.Validate(); err != nil {
				t.Fatalf("%d strips: %v", n, err)
			}
			best = min(best, time.Since(start))
		}
		t.Logf("%d strips: %v", n, best)
		if best > ceiling {
			t.Fatalf("%d strips took %v, over %v", n, best, ceiling)
		}
		if k := len(times) - 2; k >= 0 && best > 10*times[k] {
			t.Fatalf("%d strips took %v, ×%.1f the time of a quarter as many", n, best, float64(best)/float64(times[k]))
		}
		times = append(times, best)
	}
}

// tileN cuts b into n disjoint boxes that cover it, always halving the
// piece it picks along its longer side at a random place.
func tileN(r *rand.Rand, b geom.Box, n int) geom.BoxList {
	out := geom.BoxList{b}
	for len(out) < n {
		i := r.Intn(len(out))
		d := out[i].LongestDim()
		if out[i].Size(d) < 2 {
			continue
		}
		lo, hi := out[i].ChopDim(d, out[i].Lo[d]+1+r.Intn(out[i].Size(d)-1))
		out[i] = lo
		out = append(out, hi)
	}
	return out
}

// sessionLike is a five-level hierarchy of the size the session
// benchmark steps through, 80 boxes on each refined level: every level
// tiles a rectangle set a little inside its parent's.
func sessionLike(r *rand.Rand) *Hierarchy {
	h := NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
	region := h.Domain
	for l := 1; l < 5; l++ {
		region = region.Grow(-1 - r.Intn(2)).Refine(2)
		h.Levels = append(h.Levels, Level{Boxes: tileN(r, region, 80)})
	}
	return h
}

// BenchmarkValidateDelta times the structural check of one session
// step: the two finest of five levels replaced, the rest kept.
func BenchmarkValidateDelta(b *testing.B) {
	h := sessionLike(rand.New(rand.NewSource(54)))
	if err := h.Validate(); err != nil {
		b.Fatal(err)
	}
	changed := []bool{false, false, false, true, true}
	b.ReportAllocs()
	for b.Loop() {
		if err := h.check("delta level", changed); err != nil {
			b.Fatal(err)
		}
	}
}
