package grid

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"samr/internal/geom"
)

// TestCodecRoundTrip: a hierarchy's geometry comes back as it went in,
// with nothing left over, and so does every box of a lattice that holds
// the extreme corners.
func TestCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for i := 0; i < 50; i++ {
		h := randomValid(r)
		enc := AppendHierarchy(nil, h)
		rd := NewReader(enc)
		got := rd.Hierarchy()
		if err := rd.Done(); err != nil {
			t.Fatalf("hierarchy %d: %v", i, err)
		}
		if got.Signature() != h.Signature() {
			t.Fatalf("hierarchy %d changed in the round trip", i)
		}
	}
	for _, c := range []int{0, 1, -1, 63, -64, 64, 1 << 40, -1 << 62, 1<<63 - 1, -1 << 63} {
		b := geom.NewBox2(c, -c, c^1, 7)
		rd := NewReader(AppendBox(nil, b))
		if got := rd.Box(); rd.Done() != nil || got != b {
			t.Errorf("box %v: got %v, %v", b, got, rd.Err())
		}
	}
}

// TestReaderRefuses walks the strict reader's refusals: each input is
// one the encoders never write.
func TestReaderRefuses(t *testing.T) {
	h := NewHierarchy(geom.NewBox2(0, 0, 8, 8), 2)
	h.Levels = append(h.Levels, Level{Boxes: geom.BoxList{geom.NewBox2(2, 2, 6, 6)}})
	good := AppendHierarchy(nil, h)
	dim3, unpinned := h.Clone(), h.Clone()
	dim3.Levels[1].Boxes[0].Dim = 3
	unpinned.Levels[1].Boxes[0].Hi[2] = 2
	// A count field rewritten to 2^24: the level's box count sits right
	// after the domain, ratio, level count and level 0.
	huge := bytes.Clone(good[:len(good)-BoxMinBytes-1])
	huge = append(huge, 0x80, 0x80, 0x80, 0x08)
	huge = append(huge, good[len(good)-BoxMinBytes:]...)
	for _, tc := range []struct {
		name, want string
		in         []byte
	}{
		{"dim 3", "dim 3", AppendHierarchy(nil, dim3)},
		{"unpinned third", "third component [0,2)", AppendHierarchy(nil, unpinned)},
		{"2^24 boxes", "exceeds", huge},
		{"trailing byte", "trailing", append(bytes.Clone(good), 0)},
		{"truncated", "exceeds", good[:len(good)-1]},
		{"cut varint", "varint", []byte{0x82}},
		{"redundant varint", "varint", append([]byte{0x82, 0x00}, good[1:]...)},
	} {
		rd := NewReader(tc.in)
		rd.Hierarchy()
		if err := rd.Done(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestReaderReencodes: whatever the reader accepts, from any one-byte
// damage of a real encoding, is what the encoder writes for it.
func TestReaderReencodes(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	accepted := 0
	for i := 0; i < 20000; i++ {
		enc := AppendHierarchy(nil, randomValid(r))
		enc[r.Intn(len(enc))] = byte(r.Intn(256))
		rd := NewReader(enc)
		h := rd.Hierarchy()
		if rd.Done() != nil {
			continue
		}
		accepted++
		if out := AppendHierarchy(nil, h); !bytes.Equal(out, enc) {
			t.Fatalf("accepted % x, which re-encodes to % x", enc, out)
		}
	}
	if accepted == 0 {
		t.Error("no damaged encoding was accepted; the property was never exercised")
	}
}
