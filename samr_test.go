package samr

import (
	"context"
	"testing"

	"samr/internal/core"
)

func TestFacadeEndToEnd(t *testing.T) {
	// Tiny end-to-end pass through the public API: generate a trace,
	// classify it, select partitioners, partition and evaluate.
	cfg := PaperConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 3
	tr, err := GenerateTrace(context.Background(), "TP2D", cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7 {
		t.Fatalf("trace length = %d", tr.Len())
	}
	meta := NewMetaPartitioner(core.DefaultPartitionCost)
	m := DefaultMachine()
	ctx := context.Background()
	var prev *Hierarchy
	for _, snap := range tr.Snapshots {
		p := meta.Select(snap.H, 1e-3)
		a, err := p.Partition(ctx, snap.H, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(snap.H); err != nil {
			t.Fatal(err)
		}
		sm, err := Evaluate(ctx, snap.H, a, m)
		if err != nil {
			t.Fatal(err)
		}
		if sm.EstTime <= 0 {
			t.Error("non-positive execution-time estimate")
		}
		if prev != nil {
			if b := MigrationPenalty(prev, snap.H); b < 0 || b > 1 {
				t.Fatalf("beta_m out of range: %f", b)
			}
		}
		prev = snap.H
	}
}

func TestFacadePenalties(t *testing.T) {
	h := NewHierarchy(NewBox2(0, 0, 16, 16), 2)
	if p := CommunicationPenalty(h); p < 0 || p > 1 {
		t.Errorf("beta_c = %f", p)
	}
	if p := LoadPenalty(h); p != 0 {
		t.Errorf("flat grid beta_l = %f", p)
	}
	if p := MigrationPenalty(h, h.Clone()); p != 0 {
		t.Errorf("identical beta_m = %f", p)
	}
}

func TestFacadePartitioners(t *testing.T) {
	h := NewHierarchy(NewBox2(0, 0, 16, 16), 2)
	for _, p := range []Partitioner{NewDomainSFC(), NewPatchBased(), NewNatureFable()} {
		a, err := p.Partition(context.Background(), h, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(h); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestFacadeSimulateTrace(t *testing.T) {
	cfg := PaperConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 2
	tr, err := GenerateTrace(context.Background(), "SC2D", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateTrace(context.Background(), tr, NewNatureFable(), 4, DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != tr.Len() {
		t.Errorf("steps = %d, want %d", len(res.Steps), tr.Len())
	}
}
