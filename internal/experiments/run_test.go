package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"samr/internal/apps"
	"samr/internal/trace"
)

// TestAllBytesPinned holds `samrbench -experiment all` (table format,
// 16 processors) to the bytes bench/golden records as figures.txt, at
// both of bench's scales, with the traces generated in-process.
func TestAllBytesPinned(t *testing.T) {
	for _, sc := range []struct {
		name                string
		base, levels, steps int
		sha256              string
	}{
		{"quick", 16, 3, 20, "3c27dd3c5c95ad417fb2f03a2319886694c84e96c3d2605e1dc5610eb8e72621"},
		{"paper-16-steps", 32, 5, 16, "de44680b761086c0139222515350272667866850c67948c85362afac66469409"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			if sc.name != "quick" && testing.Short() {
				t.Skip("paper-sized hierarchies; skipped under -short")
			}
			cfg := apps.PaperConfig()
			cfg.BaseSize, cfg.MaxLevels = sc.base, sc.levels
			traces := map[string]*trace.Trace{}
			for _, app := range apps.Names {
				tr, err := apps.Generate(bg, app, cfg, sc.steps)
				noErr(t, err)
				traces[app] = tr
			}
			var out bytes.Buffer
			noErr(t, Run(bg, "all", func(app string) (*trace.Trace, error) { return traces[app], nil }, DefaultProcs, false, &out))
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != sc.sha256 {
				t.Errorf("all at %s: sha256 %s, want %s", sc.name, got, sc.sha256)
			}
		})
	}
}

// quickLoad is the -quick loader, counting the loads it serves.
func quickLoad(t *testing.T, loads *[]string) func(string) (*trace.Trace, error) {
	return func(app string) (*trace.Trace, error) {
		*loads = append(*loads, app)
		return quick(t, app), nil
	}
}

// TestStandaloneExperiments: every experiment outside "all" runs by
// name, prints one block per application it runs over, and does not
// appear in "all"'s output.
func TestStandaloneExperiments(t *testing.T) {
	var all bytes.Buffer
	var loads []string
	noErr(t, Run(bg, "all", quickLoad(t, &loads), DefaultProcs, false, &all))
	for _, e := range menu {
		if !e.standalone {
			continue
		}
		loads = nil
		var out bytes.Buffer
		noErr(t, Run(bg, e.name, quickLoad(t, &loads), DefaultProcs, false, &out))
		if got := strings.Count(out.String(), "== "+e.name+": "); got != len(e.apps) || len(loads) != len(e.apps) {
			t.Errorf("%s: %d blocks from %d loads, want %d", e.name, got, len(loads), len(e.apps))
		}
		if strings.Contains(all.String(), "== "+e.name+": ") {
			t.Errorf("all prints the standalone %s", e.name)
		}
	}
}

func TestUnknownExperimentListsMenu(t *testing.T) {
	err := Run(bg, "fig2", func(string) (*trace.Trace, error) {
		t.Fatal("an unknown experiment loaded a trace")
		return nil, nil
	}, DefaultProcs, false, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown experiment: no error")
	}
	for _, e := range menu {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list %s", err, e.name)
		}
	}
}

// TestSweepWidensLadder: -procs adds a rung to the sweep's default
// ladder instead of replacing it.
func TestSweepWidensLadder(t *testing.T) {
	tr := quick(t, "BL2D")
	for procs, want := range map[int]string{16: "4 8 16 32 64", 12: "4 8 12 16 32 64"} {
		tb, err := sweep(bg, tr, procs)
		noErr(t, err)
		var rungs []string
		for _, r := range tb.Rows {
			rungs = append(rungs, r[0])
		}
		if got := strings.Join(rungs, " "); got != want {
			t.Errorf("procs %d: ladder %s, want %s", procs, got, want)
		}
	}
}

// TestSelections: one row per snapshot, and the notes' counts over the
// stable add up to the steps, so every choice is from the stable.
func TestSelections(t *testing.T) {
	for _, app := range apps.Names {
		tr := quick(t, app)
		tb, err := selections(bg, tr, DefaultProcs)
		noErr(t, err)
		if len(tb.Rows) != tr.Len() {
			t.Fatalf("%s: %d rows for %d snapshots", app, len(tb.Rows), tr.Len())
		}
		counted := 0
		for _, n := range tb.Notes {
			var name string
			var k, of int
			if _, err := fmt.Sscanf(n, "%s selected on %d of %d steps", &name, &k, &of); err == nil {
				counted += k
			}
		}
		if counted != tr.Len() {
			t.Errorf("%s: notes count %d selections over %d steps", app, counted, tr.Len())
		}
		if last := tb.Notes[len(tb.Notes)-1]; !strings.HasPrefix(last, "largest dimIII ") {
			t.Errorf("%s: last note %q", app, last)
		}
	}
}
