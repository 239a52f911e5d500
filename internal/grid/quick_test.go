package grid_test

import (
	"context"
	"testing"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
)

// BenchmarkValidate times a cold Validate over every distinct snapshot
// of the four quick traces, one op being the whole set.
func BenchmarkValidate(b *testing.B) {
	var hs []*grid.Hierarchy
	seen := map[geom.Signature]bool{}
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(context.Background(), app)
		if err != nil {
			b.Fatal(err)
		}
		for _, snap := range tr.Snapshots {
			if sig := snap.H.Signature(); !seen[sig] {
				seen[sig] = true
				hs = append(hs, snap.H)
			}
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, h := range hs {
			if err := h.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
