package amr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"samr/internal/solver"
)

// goldenSolutionHashes pin the solution, not just its geometry: the hex
// sha256 of every patch's box and interior values (every component,
// row by row, as IEEE-754 bits), level by level, after the initial
// cascade and after each of quickSteps coarse steps, at the quick scale
// apps.QuickTrace runs. TestGoldenTraceEquivalence in internal/apps
// only sees the boxes, so a change to ghost filling or prolongation
// that moves field values without moving a regrid passes it; it fails
// this.
var goldenSolutionHashes = map[string]string{
	"TP2D": "ef8ec00be73d804688adda2613f2cfffef18e9ae11868c02844fd197ca0a8e1d",
	"SC2D": "ea86e3b9e9c936ce0240474235d909f0886dd26b993b1a9e366942dcdf9424d9",
	"BL2D": "429d5db233e0c3b03eca223c5fece8050a6900a10503f3da4320b5fe30fc9950",
	"RM2D": "454284832ed6b936d041321b97f195eb03a3c573de907b36e0c089d8c77fb3a4",
}

// goldenGrownHashes pin the halos too: the hex sha256 of every patch's
// box and grown-box values (every component, every row of the grown box,
// ghosts included), level by level, after the initial cascade and after
// each coarse step. The ghosts a step leaves behind are what the next
// fill starts from, so a fill or regrid change that skips a write whose
// value some later read depends on moves them even when every interior
// stays put. They were recorded before the driver's transfer plans
// existed: at the quick scale (quickSteps steps) and at the paper's
// configuration for paperSteps steps.
var goldenGrownHashes = map[string]map[string]string{
	"quick": {
		"TP2D": "2db0594f8db452c5b3260d53dc1723a68b17ddebfb8fbd3c05e23dab6c1a5092",
		"SC2D": "f5d12e2aba6aa04e410a72ea10e02549ae4a6f5187526e16a92041cdef004a73",
		"BL2D": "1d989950590b0ab4e8251fa1028d8b1049046f4c06ee161a04161148eac51ae7",
		"RM2D": "bb58cf522995f5bca7f7106a7ce011a2657b7a6f308ad8adff5ce3e1c2b5ea43",
	},
	"paper-16-steps": {
		"TP2D": "e75c9079aabeef763a4cb43a3708a22e3ab5f84db9920cf5c4a31d5e83505ace",
		"SC2D": "9b62da0ba9929aa852cc2e60f58d5ddc9ea3c4ab966b847173af878fcdb1e0b8",
		"BL2D": "9e8e0ad377b2de668f2b1eed5b77e3e12294cf395ec4ba911b8f52e8008f1b8b",
		"RM2D": "28a5e93fef5416ab906cf13193e7cdfe9ac852a25d23b2e9fa6ed576fc9d02d8",
	},
}

const (
	quickSteps = 20
	paperSteps = 16
)

// quickConfig is the configuration of apps.QuickTrace: the paper's
// (apps.PaperConfig) on a 16x16 base with 3 levels.
func quickConfig(workers int) Config {
	cfg := paperConfig(workers)
	cfg.BaseSize = 16
	cfg.MaxLevels = 3
	return cfg
}

// paperConfig is apps.PaperConfig: a 32x32 base, 5 levels of factor-2
// refinement, regridding every 4 steps, minimum block dimension 2.
func paperConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.BaseSize = 32
	cfg.MaxLevels = 5
	cfg.RefRatio = 2
	cfg.RegridEvery = 4
	cfg.Cluster.MinWidth = 2
	cfg.Workers = workers
	return cfg
}

// solutionHash runs k at cfg for steps coarse steps and hashes the
// solution after the cascade and after every step: each patch's
// interior, or with grown set its whole grown box.
func solutionHash(t *testing.T, k solver.Kernel, cfg Config, steps int, grown bool) string {
	t.Helper()
	d, err := New(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	putRow := func(row []float64) {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	for s := 0; ; s++ {
		put(uint64(s))
		for _, ls := range d.levels {
			put(uint64(len(ls.patches)))
			for _, p := range ls.patches {
				for _, v := range []int{p.Box.Lo[0], p.Box.Lo[1], p.Box.Hi[0], p.Box.Hi[1]} {
					put(uint64(int64(v)))
				}
				for c := 0; c < p.NComp; c++ {
					if !grown {
						p.InteriorRows(c, func(_ int, row []float64) { putRow(row) })
						continue
					}
					gb := p.GrownBox()
					for y := gb.Lo[1]; y < gb.Hi[1]; y++ {
						putRow(p.Row(c, y))
					}
				}
			}
		}
		if s == steps {
			break
		}
		step(t, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// allKernels returns a fresh instance of every application's kernel.
func allKernels() []solver.Kernel {
	return []solver.Kernel{
		solver.NewEuler(), solver.NewBuckleyLeverett(),
		solver.NewScalarWave(), solver.NewTransport(),
	}
}

// TestGoldenSolution holds every application's field values, step by
// step, to the committed hashes at one, two and four workers.
func TestGoldenSolution(t *testing.T) {
	for _, k := range allKernels() {
		want := goldenSolutionHashes[k.Name()]
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", k.Name(), workers), func(t *testing.T) {
				if got := solutionHash(t, k, quickConfig(workers), quickSteps, false); got != want {
					t.Errorf("%s at %d workers: solution hash %s, want %s", k.Name(), workers, got, want)
				}
			})
		}
	}
}

// TestGoldenGrownSolution holds every application's grown-box values,
// ghosts included, step by step, to the committed hashes: at the quick
// scale at one, two and four workers, and at the paper's configuration
// for paperSteps steps (skipped under -short).
func TestGoldenGrownSolution(t *testing.T) {
	scales := []struct {
		name    string
		cfg     func(workers int) Config
		steps   int
		workers []int
	}{
		{"quick", quickConfig, quickSteps, []int{1, 2, 4}},
		{"paper-16-steps", paperConfig, paperSteps, []int{0}},
	}
	for _, sc := range scales {
		for _, k := range allKernels() {
			want := goldenGrownHashes[sc.name][k.Name()]
			for _, workers := range sc.workers {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", sc.name, k.Name(), workers), func(t *testing.T) {
					if sc.name != "quick" && testing.Short() {
						t.Skip("paper scale; run without -short")
					}
					if got := solutionHash(t, k, sc.cfg(workers), sc.steps, true); got != want {
						t.Errorf("%s %s at %d workers: grown hash %s, want %s", sc.name, k.Name(), workers, got, want)
					}
				})
			}
		}
	}
}
