package tier

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// snapshotHierarchy builds a small two-level hierarchy whose finest
// patch is parameterized, tracked like a live session's.
func snapshotHierarchy(x int) *grid.Hierarchy {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 32, 32), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(x, 8, x+16, 40)}})
	h.TrackSignature()
	return h
}

func snapshotVariants(t *testing.T) map[string]*SessionSnapshot {
	t.Helper()
	rng := rand.New(rand.NewPCG(41, 43))
	mk := func(x int, stateful bool) *SessionSnapshot {
		h := snapshotHierarchy(x)
		name := "domain"
		if stateful {
			name = "postmap(domain)"
		}
		return &SessionSnapshot{Name: name, NProcs: 8, Hierarchy: h, Sig: h.Signature(), Stateful: stateful}
	}
	withHistory := mk(8, true)
	withHistory.PrevHierarchy = snapshotHierarchy(4)
	withHistory.PrevAssignment = randAssignment(rng)
	return map[string]*SessionSnapshot{
		"stateless":             mk(0, false),
		"stateful-no-history":   mk(4, true),
		"stateful-with-history": withHistory,
	}
}

// TestSessionSnapshotRoundTrip pins the codec across all three session
// shapes: everything a resuming daemon needs — geometry, signature,
// spec, history — survives byte-exactly, and the decoded pair passes
// the re-hash that gates a real resume.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	for name, ss := range snapshotVariants(t) {
		t.Run(name, func(t *testing.T) {
			blob := EncodeSessionSnapshot(ss)
			if _, kind, err := Open(blob); err != nil || kind != KindSessionSnapshot {
				t.Fatalf("Open = kind %d, err %v", kind, err)
			}
			got, err := DecodeSessionSnapshot(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got.Name != ss.Name || got.NProcs != ss.NProcs || got.Stateful != ss.Stateful {
				t.Fatalf("scalar fields changed: %+v", got)
			}
			if got.Hierarchy.Signature() != ss.Hierarchy.Signature() {
				t.Fatal("hierarchy geometry changed in round trip")
			}
			if got.Sig != ss.Sig {
				t.Fatal("signature changed in round trip")
			}
			// The decoded pair must survive the resume gate: re-track the
			// geometry and re-hash to the recorded signature.
			got.Hierarchy.TrackSignature()
			if got.Hierarchy.Signature() != got.Sig {
				t.Fatal("decoded snapshot does not re-hash to its own signature")
			}
			if ss.PrevHierarchy == nil {
				if got.PrevHierarchy != nil || got.PrevAssignment != nil {
					t.Fatal("history materialized from nowhere")
				}
				return
			}
			if got.PrevHierarchy == nil || got.PrevHierarchy.Signature() != ss.PrevHierarchy.Signature() {
				t.Fatal("history hierarchy changed in round trip")
			}
			if !reflect.DeepEqual(got.PrevAssignment, ss.PrevAssignment) {
				t.Fatal("history assignment changed in round trip")
			}
		})
	}
}

// TestSessionSnapshotMutationDetected: every single-byte flip,
// truncation, extension, and kind confusion fails to decode — the
// quarantine path's precondition.
func TestSessionSnapshotMutationDetected(t *testing.T) {
	ss := snapshotVariants(t)["stateful-with-history"]
	blob := EncodeSessionSnapshot(ss)
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		if _, err := DecodeSessionSnapshot(mut); err == nil {
			t.Fatalf("flipped byte %d decoded cleanly", i)
		}
	}
	for cut := 1; cut <= len(blob); cut += 11 {
		if _, err := DecodeSessionSnapshot(blob[:len(blob)-cut]); err == nil {
			t.Fatalf("truncation by %d decoded cleanly", cut)
		}
	}
	if _, err := DecodeSessionSnapshot(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("extended blob decoded cleanly")
	}
	if _, err := DecodeSessionSnapshot(nil); err == nil {
		t.Fatal("nil blob decoded cleanly")
	}
	if _, err := DecodeSessionSnapshot(smallBlob()); err == nil {
		t.Fatal("assignment blob decoded as a session snapshot")
	}
	if _, err := DecodeAssignment(blob); err == nil {
		t.Fatal("session snapshot decoded as an assignment")
	}
}

// kind3Snapshot seals a stateless ss in the retired kind-3 layout, which
// followed the top signature with each level's sub-digest and
// length-prefixed sha256 midstate.
func kind3Snapshot(ss *SessionSnapshot) []byte {
	payload := appendBytes(nil, []byte(ss.Name))
	payload = binary.AppendUvarint(payload, uint64(ss.NProcs))
	payload = grid.AppendHierarchy(payload, ss.Hierarchy)
	payload = append(payload, ss.Sig[:]...)
	for l := range ss.Hierarchy.Levels {
		dig := ss.Hierarchy.LevelSignature(l)
		payload = append(payload, dig[:]...)
		mid, _ := sha256.New().(encoding.BinaryMarshaler).MarshalBinary()
		payload = appendBytes(payload, mid)
	}
	return seal(3, appendBool(payload, false))
}

func FuzzDecodeSessionSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSessionSnapshot(&SessionSnapshot{
		Name: "domain", NProcs: 1, Hierarchy: snapshotHierarchy(0),
	}))
	f.Add(kind3Snapshot(&SessionSnapshot{Name: "domain", NProcs: 1, Hierarchy: snapshotHierarchy(0)}))
	f.Add(EncodeAssignment(&partition.Assignment{NumProcs: 2}))
	for _, a := range hostileAssignments() {
		h := snapshotHierarchy(0)
		blob := EncodeSessionSnapshot(&SessionSnapshot{Name: "postmap(domain)", NProcs: 4, Hierarchy: h, Sig: h.Signature(),
			Stateful: true, PrevHierarchy: snapshotHierarchy(4), PrevAssignment: a})
		f.Add(blob)
		f.Add(blob[headerLen : len(blob)-checksumLen])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are expected. As in
		// FuzzDecodeAssignment the input is also sealed as a payload.
		ss, err := DecodeSessionSnapshot(data)
		if err != nil {
			if ss, err = DecodeSessionSnapshot(seal(KindSessionSnapshot, data)); err != nil {
				return
			}
		}
		if ss == nil {
			t.Fatal("nil snapshot with nil error")
		}
		hs := []*grid.Hierarchy{ss.Hierarchy}
		if ss.PrevAssignment != nil {
			checkDecodedAssignment(t, ss.PrevAssignment)
			hs = append(hs, ss.PrevHierarchy)
		}
		for _, h := range hs {
			boxes := geom.BoxList{h.Domain}
			for _, lev := range h.Levels {
				boxes = append(boxes, lev.Boxes...)
			}
			for _, b := range boxes {
				if !pinned(b) {
					t.Fatalf("decoded hierarchy box out of bounds: %+v", b)
				}
			}
		}
	})
}
