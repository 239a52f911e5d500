package tier

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samr/internal/geom"
	"samr/internal/partition"
)

// goldenBlobs are the sealed forms TestBlobBytesGolden pins: one
// assignment, and the two session snapshot shapes a daemon writes — a
// stateless one and a postmap one carrying its mapping history.
func goldenBlobs() map[string][]byte {
	a := &partition.Assignment{NumProcs: 3, Fragments: []partition.Fragment{
		{Level: 0, Owner: 0, Box: geom.NewBox2(0, 0, 16, 32)},
		{Level: 0, Owner: 1, Box: geom.NewBox2(16, 0, 32, 32)},
		{Level: 1, Owner: 2, Box: geom.NewBox2(-70, 8, 300, 40)},
	}}
	stateless, cur, prev := snapshotHierarchy(0), snapshotHierarchy(8), snapshotHierarchy(4)
	return map[string][]byte{
		"assignment": EncodeAssignment(a),
		"session-stateless": EncodeSessionSnapshot(&SessionSnapshot{
			Name: "domain", NProcs: 8, Hierarchy: stateless, Sig: stateless.Signature(),
		}),
		"session-postmap": EncodeSessionSnapshot(&SessionSnapshot{
			Name: "postmap(domain)", NProcs: 3, Hierarchy: cur, Sig: cur.Signature(),
			Stateful: true, PrevHierarchy: prev, PrevAssignment: a,
		}),
	}
}

// TestBlobBytesGolden pins the bytes the codec seals against
// testdata/blobs.hex, one "name hex" line per blob. Members of one
// fleet, and a daemon restarted on an old disk directory, read each
// other's blobs under one codecVersion, so these bytes are a contract:
// a change that moves them bumps codecVersion or a kind instead of
// editing the file.
func TestBlobBytesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "blobs.hex"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, blob, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = blob
	}
	blobs := goldenBlobs()
	if len(want) != len(blobs) {
		t.Fatalf("golden file has %d blobs, want %d", len(want), len(blobs))
	}
	for name, blob := range blobs {
		if got := hex.EncodeToString(blob); got != want[name] {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want[name])
		}
	}
	if _, err := DecodeAssignment(blobs["assignment"]); err != nil {
		t.Errorf("golden assignment: %v", err)
	}
	for _, name := range []string{"session-stateless", "session-postmap"} {
		if _, err := DecodeSessionSnapshot(blobs[name]); err != nil {
			t.Errorf("golden %s: %v", name, err)
		}
	}
}
