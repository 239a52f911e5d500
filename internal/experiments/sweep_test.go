package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/partition"
	"samr/internal/sfc"
	"samr/internal/sim"
)

func TestProcsSweepShape(t *testing.T) {
	tr := quick(t, "BL2D")
	tb, err := ProcsSweep(bg, tr, partition.NewNatureFable(), nil)
	noErr(t, err)
	if len(tb.Rows) != len(DefaultProcsLadder) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(DefaultProcsLadder))
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tb.Columns))
		}
		if row[0] == "" {
			t.Fatalf("row %d missing nprocs", i)
		}
	}
}

// TestProcsSweepDeterministic: a repeated sweep (fully warm caches)
// must print byte-identical tables — the user-facing form of the
// bit-identical memoization guarantee.
func TestProcsSweepDeterministic(t *testing.T) {
	tr := quick(t, "SC2D")
	ladder := []int{2, 5, 9}
	render := func() string {
		tb, err := ProcsSweep(bg, tr, &partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2}, ladder)
		noErr(t, err)
		var buf bytes.Buffer
		tb.Print(&buf)
		return buf.String()
	}
	cold := render()
	warm := render()
	if cold != warm {
		t.Fatalf("warm sweep diverged from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

// TestProcsSweepStatefulSequential: a post-mapped partitioner must
// still produce a complete, per-rung-reset sweep (sequential path).
func TestProcsSweepStatefulSequential(t *testing.T) {
	tr := quick(t, "TP2D")
	pm := partition.NewPostMapped(partition.NewNatureFable())
	tb, err := ProcsSweep(bg, tr, pm, []int{2, 4})
	noErr(t, err)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// Per-rung reset: rerunning the same rung fresh must reproduce it.
	pm2 := partition.NewPostMapped(partition.NewNatureFable())
	tb2, err := ProcsSweep(bg, tr, pm2, []int{2, 4})
	noErr(t, err)
	if !reflect.DeepEqual(tb.Rows, tb2.Rows) {
		t.Fatal("stateful sweep not reproducible (state leaked between rungs)")
	}
}

// TestAblationWarmCacheIdentical: a full ablation table regenerated
// with every memo layer warm must match its cold-cache rendering
// byte for byte.
func TestAblationWarmCacheIdentical(t *testing.T) {
	tr := quick(t, "BL2D")
	render := func() string {
		tb, err := AblationPartitioners(bg, tr, 8)
		noErr(t, err)
		var buf bytes.Buffer
		tb.Print(&buf)
		return buf.String()
	}
	cold := render()
	warm := render()
	if cold != warm {
		t.Fatalf("warm ablation diverged from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

// TestPartitionCostSweepIsInert pins the sensitivity table that let the
// partition-cost knob and its calibrator go (ROADMAP item 4(d)): over a
// 5000x sweep of the cost estimate — from a tenth of the default,
// through the cost bench/ measures for a warm hybrid partition
// (6.65e-4 s), to 0.1 s — the meta-partitioner makes the same choice on
// every snapshot of all four applications, although Offer itself moves
// by more than three orders of magnitude. DimII = Need x Offer only
// acts through the speed rule, and where DimII is under that cutoff the
// grid is near its largest. The day this fails, the classifier has
// become sensitive to the cost and core.DefaultPartitionCost has to be
// a measurement again.
func TestPartitionCostSweepIsInert(t *testing.T) {
	costs := []float64{2e-5, core.DefaultPartitionCost, 6.65e-4, 1e-3, 2e-3, 1e-2, 1e-1}
	m := sim.DefaultMachine()
	for _, app := range apps.Names {
		tr := quick(t, app)
		chosen := make([][]string, len(costs)) // per cost, the choice on every snapshot
		var offers strings.Builder
		for ci, cost := range costs {
			meta := core.NewMetaPartitioner(cost)
			lo, hi := 1.0, 0.0
			for _, snap := range tr.Snapshots {
				p := meta.Select(snap.H, m.TimeSlot(snap.H, DefaultProcs))
				chosen[ci] = append(chosen[ci], p.Name())
				s, _ := meta.LastSample()
				lo, hi = min(lo, s.Offer), max(hi, s.Offer)
			}
			fmt.Fprintf(&offers, "  cost %.2e s: offer %.4f..%.4f\n", cost, lo, hi)
		}
		for ci, cost := range costs {
			if !reflect.DeepEqual(chosen[ci], chosen[1]) {
				t.Errorf("%s: at cost %.2e s the meta-partitioner chooses\n  %v\nbut at the default %.2e s\n  %v\nthe choice depends on the cost now, so the cost has to be measured or settable again; offer ranges:\n%s",
					app, cost, chosen[ci], core.DefaultPartitionCost, chosen[1], offers.String())
			}
		}
	}
}
