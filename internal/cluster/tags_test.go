package cluster_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"samr/internal/amr"
	"samr/internal/apps"
	"samr/internal/cluster"
	"samr/internal/field"
	"samr/internal/geom"
	"samr/internal/solver"
)

// tagRecorder wraps a kernel and records the tag sets the AMR driver
// clusters: with one worker the driver tags a level's patches in order,
// one Tag call per patch, and two tagging passes are told apart by the
// level's cell size or by a kernel step between them.
type tagRecorder struct {
	solver.Kernel
	sets    []tagPass
	stepped bool
}

// tagPass is the tag set of one clusterLevel call and the cell size of
// the level it tagged.
type tagPass struct {
	dx  float64
	pts []geom.IntVect
}

func (k *tagRecorder) Step(p *field.Patch, t, dt float64, g solver.Geometry) {
	k.stepped = true
	k.Kernel.Step(p, t, dt, g)
}

func (k *tagRecorder) Tag(p *field.Patch, g solver.Geometry, tag func(i, j int)) {
	if n := len(k.sets); n == 0 || k.stepped || k.sets[n-1].dx != g.Dx {
		k.sets = append(k.sets, tagPass{dx: g.Dx})
		k.stepped = false
	}
	pass := &k.sets[len(k.sets)-1]
	k.Kernel.Tag(p, g, func(i, j int) {
		pass.pts = append(pass.pts, geom.IV2(i, j))
		tag(i, j)
	})
}

// TestClusterPointsMatchesReferenceOnTraceTags holds ClusterPoints to
// its reference body, box for box, on every tag set the driver
// clusters while generating the four applications' quick traces and,
// unless -short, their first 16 steps at the paper's configuration,
// whose tag sets are ten times larger.
func TestClusterPointsMatchesReferenceOnTraceTags(t *testing.T) {
	quick := apps.PaperConfig()
	quick.BaseSize = 16
	quick.MaxLevels = 3
	scales := []struct {
		name  string
		cfg   amr.Config
		steps int
	}{
		{"quick", quick, 20},
		{"paper-16-steps", apps.PaperConfig(), 16},
	}
	for _, sc := range scales {
		if sc.name != "quick" && testing.Short() {
			continue
		}
		cfg := sc.cfg
		cfg.Workers = 1
		for _, name := range apps.Names {
			k, err := apps.Kernel(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := &tagRecorder{Kernel: k}
			if _, err := amr.Run(context.Background(), rec, cfg, sc.steps); err != nil {
				t.Fatal(err)
			}
			sets, largest := 0, 0
			for i, pass := range rec.sets {
				if len(pass.pts) == 0 {
					continue
				}
				sets++
				largest = max(largest, len(pass.pts))
				n := int(math.Round(1 / pass.dx))
				dom := geom.NewBox2(0, 0, n, n)
				want := cluster.ClusterPointsReference(slices.Clone(pass.pts), dom, cfg.Cluster)
				if got := cluster.ClusterPoints(pass.pts, dom, cfg.Cluster); !slices.Equal(got, want) {
					t.Fatalf("%s %s tag set %d (%d points on %v):\n got %v\nwant %v", sc.name, name, i, len(pass.pts), dom, got, want)
				}
			}
			if sets == 0 {
				t.Fatalf("%s %s: the driver clustered no tag set", sc.name, name)
			}
			t.Logf("%s %s: %d tag sets, the largest %d points", sc.name, name, sets, largest)
		}
	}
}
