package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
)

func sampleTrace() *Trace {
	dom := geom.NewBox2(0, 0, 16, 16)
	t := &Trace{App: "TP2D", RefRatio: 2, MaxLevels: 3, Domain: dom}
	h := grid.NewHierarchy(dom, 2)
	t.Append(0, 0.0, h)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(4, 4, 12, 12)}})
	t.Append(1, 0.1, h)
	h.Levels[1].Boxes[0] = geom.NewBox2(6, 6, 14, 14)
	t.Append(2, 0.2, h)
	return t
}

func TestAppendDeepCopies(t *testing.T) {
	tr := sampleTrace()
	// Snapshot 1 and 2 must differ even though the same hierarchy object
	// was mutated between appends.
	b1 := tr.Snapshots[1].H.Levels[1].Boxes[0]
	b2 := tr.Snapshots[2].H.Levels[1].Boxes[0]
	if b1 == b2 {
		t.Error("Append did not deep-copy the hierarchy")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.App != tr.App || got.RefRatio != tr.RefRatio || got.MaxLevels != tr.MaxLevels {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if got.Domain != tr.Domain {
		t.Errorf("domain = %v, want %v", got.Domain, tr.Domain)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("snapshot count = %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Snapshots {
		a, b := tr.Snapshots[i], got.Snapshots[i]
		if a.Step != b.Step || a.Time != b.Time {
			t.Errorf("snapshot %d header mismatch", i)
		}
		if a.H.NumPoints() != b.H.NumPoints() {
			t.Errorf("snapshot %d points %d != %d", i, a.H.NumPoints(), b.H.NumPoints())
		}
		if len(a.H.Levels) != len(b.H.Levels) {
			t.Fatalf("snapshot %d level count mismatch", i)
		}
		for l := range a.H.Levels {
			for bi := range a.H.Levels[l].Boxes {
				if a.H.Levels[l].Boxes[bi] != b.H.Levels[l].Boxes[bi] {
					t.Errorf("snapshot %d level %d box %d mismatch", i, l, bi)
				}
			}
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTATRACEFILE...")); err == nil {
		t.Error("Read should reject bad magic")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Read of %d/%d bytes should fail", cut, len(full))
		}
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	// Non-increasing steps.
	bad := sampleTrace()
	bad.Snapshots[2].Step = 1
	if err := bad.Validate(); err == nil {
		t.Error("Validate should reject non-increasing steps")
	}
	// Broken hierarchy.
	bad2 := sampleTrace()
	bad2.Snapshots[1].H.Levels[1].Boxes = append(bad2.Snapshots[1].H.Levels[1].Boxes,
		bad2.Snapshots[1].H.Levels[1].Boxes[0])
	if err := bad2.Validate(); err == nil {
		t.Error("Validate should reject overlapping level boxes")
	}
}

// hugeBoxCount is a 128-byte .trc whose one snapshot declares one level
// of 2^24 boxes and carries none of them: a reader that believes the
// count before checking it against the bytes left makes 896 MB of boxes
// first.
func hugeBoxCount() []byte {
	b := append([]byte(nil), magic[:]...)
	for _, w := range []int64{
		0,                           // app ""
		2, 3, 2, 0, 0, 0, 16, 16, 1, // ratio, max levels, domain
		1,       // one snapshot
		0, 0, 1, // step, time, one level
		1 << 24, // of 2^24 boxes
	} {
		b = appendWord(b, w)
	}
	return b
}

// encoded writes tr, for seeds and fixtures.
func encoded(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readAllocs reads data and reports the bytes the read allocated.
func readAllocs(data []byte) (*Trace, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return tr, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadRefusesWhatWriteWouldNot: counts past the bytes left, boxes
// off the planar layout and trailing bytes are refused as the file is
// read, and the 128-byte file that declares 2^24 boxes is refused
// before it costs anything like them.
func TestReadRefusesWhatWriteWouldNot(t *testing.T) {
	if len(hugeBoxCount()) != 128 {
		t.Fatalf("repro is %d bytes, want 128", len(hugeBoxCount()))
	}
	_, alloc, err := readAllocs(hugeBoxCount())
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("2^24 declared boxes: %v, want a count refusal", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("refusing the 128-byte repro allocated %d bytes, want under 1 MiB", alloc)
	}

	dim3 := sampleTrace()
	dim3.Snapshots[1].H.Levels[1].Boxes[0].Dim = 3
	unpinned := sampleTrace()
	unpinned.Snapshots[2].H.Levels[1].Boxes[0].Hi[2] = 4
	flat := sampleTrace()
	flat.Domain.Dim = 1
	for name, data := range map[string][]byte{
		"dim 3 box":      encoded(t, dim3),
		"unpinned third": encoded(t, unpinned),
		"dim 1 domain":   encoded(t, flat),
		"trailing byte":  append(encoded(t, sampleTrace()), 0),
		"version 2":      append([]byte("SAMRTRC2"), encoded(t, sampleTrace())[8:]...),
	} {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: read cleanly", name)
		}
	}
}

// FuzzReadTrace holds Read to its contract on any input: it fails, or
// it returns a trace that Write turns back into the same bytes and that
// Validate judges without panicking; either way it allocates at most a
// fixed multiple of the input's length.
func FuzzReadTrace(f *testing.F) {
	f.Add(encoded(f, sampleTrace()))
	f.Add(encoded(f, &Trace{App: "X", RefRatio: 2, MaxLevels: 1, Domain: geom.NewBox2(0, 0, 4, 4)}))
	f.Add(hugeBoxCount())
	f.Add(magic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, alloc, err := readAllocs(data)
		if limit := 64*uint64(len(data)) + 1<<16; alloc > limit {
			t.Fatalf("reading %d bytes allocated %d, over %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		if out := encoded(t, tr); !bytes.Equal(out, data) {
			t.Fatalf("read %d bytes cleanly, re-encoded to %d other bytes", len(data), len(out))
		}
		tr.Validate() //nolint:errcheck // judged, not trusted: it must only not panic
	})
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := &Trace{App: "X", RefRatio: 2, MaxLevels: 1, Domain: geom.NewBox2(0, 0, 4, 4)}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty trace read back with %d snapshots", got.Len())
	}
}
