package samr

import (
	"context"
	"testing"

	"samr/internal/grid"
)

func TestFacadeEndToEnd(t *testing.T) {
	// The quickstart's pass through the public API: build a hierarchy,
	// move its refinement, read the migration penalty, partition each
	// state and evaluate the result.
	ctx := context.Background()
	m := DefaultMachine()
	var prev *Hierarchy
	for x := 20; x <= 60; x += 20 {
		h := NewHierarchy(NewBox2(0, 0, 64, 64), 2)
		h.Levels = append(h.Levels, grid.Level{Boxes: BoxList{NewBox2(x, 20, x+40, 60)}})
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		a, err := NewNatureFable().Partition(ctx, h, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(h); err != nil {
			t.Fatal(err)
		}
		sm, err := Evaluate(ctx, h, a, m)
		if err != nil {
			t.Fatal(err)
		}
		if sm.EstTime <= 0 {
			t.Error("non-positive execution-time estimate")
		}
		if prev != nil {
			if b := MigrationPenalty(prev, h); b <= 0 || b > 1 {
				t.Fatalf("beta_m of a moved patch = %f, want in (0, 1]", b)
			}
		}
		prev = h
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
