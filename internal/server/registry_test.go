package server

import (
	"bytes"
	"encoding/binary"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samr/internal/trace"
)

// TestUnloadableTracesSkipped drops two .trc files the reader refuses
// into the trace directory beside a sound one: the 128-byte file that
// declares one level of 2^24 boxes (the reader once made 896 MB of
// boxes for it before failing), and the sound trace with a stray byte
// after it. Start-up skips each with its reason in the log, /v1/traces
// lists only the sound one, and /v1/simulate by either name is a 404.
func TestUnloadableTracesSkipped(t *testing.T) {
	var good bytes.Buffer
	if err := trace.Write(&good, testTrace(3)); err != nil {
		t.Fatal(err)
	}
	huge := []byte("SAMRTRC1")
	// app "", ratio 2, max levels 2, the 2-D domain [0,32)², one
	// snapshot (step 0, time 0) of one level of 2^24 boxes, and no boxes.
	for _, w := range []int64{0, 2, 2, 2, 0, 0, 0, 32, 32, 1, 1, 0, 0, 1, 1 << 24} {
		huge = binary.LittleEndian.AppendUint64(huge, uint64(w))
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"good":     good.Bytes(),
		"huge":     huge,
		"trailing": append(bytes.Clone(good.Bytes()), 0),
	} {
		if err := os.WriteFile(filepath.Join(dir, name+".trc"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	_, ts := newTestServer(t, Config{TraceDir: dir})
	log.SetOutput(prev)
	for _, want := range []string{"skipping huge.trc: trace \"huge\": trace: grid: count 16777216 exceeds",
		"skipping trailing.trc: trace \"trailing\": trace: grid: 1 trailing bytes"} {
		if !strings.Contains(logged.String(), want) {
			t.Errorf("start-up log lacks %q:\n%s", want, logged.String())
		}
	}

	var traces TracesResponse
	getJSON(t, ts.URL+"/v1/traces", &traces)
	if len(traces.Traces) != 1 || traces.Traces[0].Name != "good" {
		t.Errorf("traces = %+v, want only good", traces.Traces)
	}
	for _, name := range []string{"huge", "trailing"} {
		if r := post(t, ts.URL+"/v1/simulate", SimulateRequest{Trace: name, Partitioner: "domain", NProcs: 4}, nil); r.StatusCode != http.StatusNotFound {
			t.Errorf("simulate over %s.trc: status %d, want 404", name, r.StatusCode)
		}
	}
}
