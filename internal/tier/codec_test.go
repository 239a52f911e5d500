package tier

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// randAssignment builds a structurally arbitrary assignment within the
// decoder's bounds: the codec must round-trip any of them, not just
// valid decompositions.
func randAssignment(rng *rand.Rand) *partition.Assignment {
	a := &partition.Assignment{NumProcs: 1 + rng.IntN(64)}
	n := rng.IntN(40)
	for i := 0; i < n; i++ {
		x, y := rng.IntN(2048)-1024, rng.IntN(2048)-1024
		a.Fragments = append(a.Fragments, partition.Fragment{
			Level: rng.IntN(6),
			Box:   geom.NewBox2(x, y, x+rng.IntN(256), y+rng.IntN(256)),
			Owner: rng.IntN(a.NumProcs),
		})
	}
	return a
}

// hostileAssignments are sealed blobs no caller could survive: each
// passes the envelope check (anyone can seal) and would, served as a
// tier hit, allocate NumProcs words, index past the load vector, index
// past a box's three components, loop 2^62 times in StepFactor, or not
// fit the packed form the daemon caches (a corner outside int32, a
// level past a byte).
func hostileAssignments() map[string]*partition.Assignment {
	frag := func(level, owner int, b geom.Box) []partition.Fragment {
		return []partition.Fragment{{Level: level, Owner: owner, Box: b}}
	}
	unit := geom.NewBox2(0, 0, 4, 4)
	unpinned := unit
	unpinned.Hi[2] = 7
	return map[string]*partition.Assignment{
		"nprocs 2^40":      {NumProcs: 1 << 40, Fragments: frag(0, 1<<30, unit)},
		"nprocs 0":         {NumProcs: 0},
		"owner 9 of 4":     {NumProcs: 4, Fragments: frag(0, 9, unit)},
		"dim 5":            {NumProcs: 4, Fragments: frag(0, 1, geom.Box{Lo: unit.Lo, Hi: unit.Hi, Dim: 5})},
		"unpinned z":       {NumProcs: 4, Fragments: frag(0, 1, unpinned)},
		"level 2^62":       {NumProcs: 4, Fragments: frag(1<<62, 1, unit)},
		"level maxLevel+1": {NumProcs: 4, Fragments: frag(maxLevel+1, 1, unit)},
		"level 256":        {NumProcs: 4, Fragments: frag(256, 1, unit)},
		"corner 2^33":      {NumProcs: 4, Fragments: frag(0, 1, geom.NewBox2(0, 0, 1<<33, 4))},
		"corner -2^31-1":   {NumProcs: 4, Fragments: frag(0, 1, geom.NewBox2(math.MinInt32-1, 0, 4, 4))},
	}
}

// TestDecodersRefuseOutOfBounds: a sealed blob is not a trusted blob.
// Every hostile assignment is ErrCorrupt to DecodeAssignment and, as a
// snapshot's mapping history, to DecodeSessionSnapshot; so is a
// snapshot whose hierarchy carries a non-planar box.
func TestDecodersRefuseOutOfBounds(t *testing.T) {
	for name, a := range hostileAssignments() {
		if name == "nprocs 2^40" {
			// In bounds for the decoder (the owner is below it); the
			// server holds NumProcs to the key's own count.
			if _, err := DecodeAssignment(EncodeAssignment(a)); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if _, err := DecodeAssignment(EncodeAssignment(a)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeAssignment = %v, want ErrCorrupt", name, err)
		}
		h := snapshotHierarchy(0)
		ss := &SessionSnapshot{Name: "postmap(domain)", NProcs: 4, Hierarchy: h, Sig: h.Signature(),
			Stateful: true, PrevHierarchy: snapshotHierarchy(4), PrevAssignment: a}
		if _, err := DecodeSessionSnapshot(EncodeSessionSnapshot(ss)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeSessionSnapshot = %v, want ErrCorrupt", name, err)
		}
	}
	h := snapshotHierarchy(0)
	h.Levels[1].Boxes[0].Dim = 5
	ss := &SessionSnapshot{Name: "domain", NProcs: 4, Hierarchy: h}
	if _, err := DecodeSessionSnapshot(EncodeSessionSnapshot(ss)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-planar hierarchy box: DecodeSessionSnapshot = %v, want ErrCorrupt", err)
	}
	// The largest values in bounds still decode.
	edge := &partition.Assignment{NumProcs: 4, Fragments: []partition.Fragment{{Level: maxLevel, Owner: 3, Box: geom.NewBox2(0, 0, 4, 4)}}}
	if got, err := DecodeAssignment(EncodeAssignment(edge)); err != nil || !reflect.DeepEqual(got, edge) {
		t.Errorf("edge of bounds: %+v, %v", got, err)
	}
}

// pinned reports the one box layout the decoders let through.
func pinned(b geom.Box) bool { return b.Dim == 2 && b.Lo[2] == 0 && b.Hi[2] == 1 }

// checkDecodedAssignment is the fuzz property behind both decoders:
// whatever decodes without error is in bounds, so the loops that serve
// a tier hit cannot panic on it.
func checkDecodedAssignment(t *testing.T, a *partition.Assignment) {
	t.Helper()
	if a.NumProcs < 1 {
		t.Fatalf("decoded NumProcs %d", a.NumProcs)
	}
	for _, f := range a.Fragments {
		if f.Owner < 0 || f.Owner >= a.NumProcs || f.Level < 0 || f.Level > maxLevel || !pinned(f.Box) ||
			slices.ContainsFunc(append(f.Box.Lo[:2:2], f.Box.Hi[:2]...), func(c int) bool { return c != int(int32(c)) }) {
			t.Fatalf("decoded fragment out of bounds: %+v of %d procs", f, a.NumProcs)
		}
	}
	if a.NumProcs <= 1<<10 { // Loads allocates NumProcs words
		a.Loads(grid.NewHierarchy(geom.NewBox2(0, 0, 8, 8), 2))
	}
}

func TestAssignmentRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 200; i++ {
		a := randAssignment(rng)
		blob := EncodeAssignment(a)
		got, err := DecodeAssignment(blob)
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		p, err := partition.Pack(a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodePacked(p), blob) {
			t.Fatalf("iteration %d: the packed form seals other bytes", i)
		}
		if !reflect.DeepEqual(a, got) {
			t.Fatalf("iteration %d: round trip mismatch:\n in: %+v\nout: %+v", i, a, got)
		}
	}
}

// TestEveryMutationDetected flips, truncates, and extends blobs: each
// damaged form must fail to decode (the checksum catches single-byte
// damage with certainty short of a sha256 collision).
func TestEveryMutationDetected(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	a := randAssignment(rng)
	blob := EncodeAssignment(a)

	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		if _, err := DecodeAssignment(mut); err == nil {
			t.Fatalf("flipped byte %d decoded cleanly", i)
		}
	}
	for cut := 1; cut <= len(blob); cut += 7 {
		if _, err := DecodeAssignment(blob[:len(blob)-cut]); err == nil {
			t.Fatalf("truncation by %d decoded cleanly", cut)
		}
	}
	if _, err := DecodeAssignment(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("extended blob decoded cleanly")
	}
	if _, err := DecodeAssignment(nil); err == nil {
		t.Fatal("nil blob decoded cleanly")
	}
	// Kind confusion, with the retired kind bytes 2 (simulator step
	// artifacts) and 3 (session snapshots carrying hash midstates): old
	// disk dirs and mixed-version peers may still hold such blobs, so
	// the envelope gate (Open, ServePut) accepts them while every typed
	// decoder reports a miss.
	tr, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := snapshotHierarchy(0)
	for kind, retired := range map[byte][]byte{
		2: seal(2, appendAssignment(nil, a)),
		3: kind3Snapshot(&SessionSnapshot{Name: "domain", NProcs: 8, Hierarchy: h, Sig: h.Signature()}),
	} {
		if _, got, err := Open(retired); err != nil || got != kind {
			t.Fatalf("Open(retired kind %d) = kind %d, err %v", kind, got, err)
		}
		rec := httptest.NewRecorder()
		tr.ServePut(rec, Key("retired", string(kind)), retired)
		if rec.Code != http.StatusNoContent {
			t.Fatalf("ServePut(retired kind %d) = %d, want 204", kind, rec.Code)
		}
		if _, err := DecodeAssignment(retired); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("retired kind %d decoded as assignment: %v", kind, err)
		}
		if _, err := DecodeSessionSnapshot(retired); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("retired kind %d decoded as session snapshot: %v", kind, err)
		}
	}
}

func TestOpenValidatesEnvelope(t *testing.T) {
	blob := EncodeAssignment(&partition.Assignment{NumProcs: 4})
	if _, kind, err := Open(blob); err != nil || kind != KindAssignment {
		t.Fatalf("Open(valid) = kind %d, err %v", kind, err)
	}
	if _, _, err := Open([]byte("not a tier blob at all, definitely too short? no")); err == nil {
		t.Fatal("Open accepted garbage")
	}
}

func FuzzDecodeAssignment(f *testing.F) {
	rng := rand.New(rand.NewPCG(29, 31))
	f.Add([]byte{})
	f.Add(EncodeAssignment(randAssignment(rng)))
	f.Add(seal(2, appendAssignment(nil, randAssignment(rng)))) // retired kind
	for _, a := range hostileAssignments() {
		f.Add(EncodeAssignment(a))
		f.Add(appendAssignment(nil, a))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are expected. The
		// input is read as a blob and, sealed here, as a payload: a
		// mutation never survives the checksum, so only the second
		// reading reaches the bounds.
		for _, blob := range [][]byte{data, seal(KindAssignment, data)} {
			a, err := DecodeAssignment(blob)
			if err != nil {
				continue
			}
			if a == nil {
				t.Fatal("nil assignment with nil error")
			}
			checkDecodedAssignment(t, a)
		}
	})
}
