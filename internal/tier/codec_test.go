package tier

import (
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"samr/internal/geom"
	"samr/internal/partition"
)

// randAssignment builds a structurally arbitrary assignment: the codec
// must round-trip anything, not just valid decompositions.
func randAssignment(rng *rand.Rand) *partition.Assignment {
	a := &partition.Assignment{NumProcs: 1 + rng.IntN(64)}
	n := rng.IntN(40)
	for i := 0; i < n; i++ {
		dim := 2 + rng.IntN(2)
		b := geom.Box{Dim: dim}
		for d := 0; d < geom.MaxDim; d++ {
			// Unused axes carry the 0/1 padding convention sometimes,
			// arbitrary values other times: both must survive.
			b.Lo[d] = rng.IntN(2048) - 1024
			b.Hi[d] = b.Lo[d] + rng.IntN(256)
		}
		a.Fragments = append(a.Fragments, partition.Fragment{
			Level: rng.IntN(6),
			Box:   b,
			Owner: rng.IntN(a.NumProcs),
		})
	}
	return a
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
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are expected.
		a, err := DecodeAssignment(data)
		if err == nil && a == nil {
			t.Fatal("nil assignment with nil error")
		}
	})
}
