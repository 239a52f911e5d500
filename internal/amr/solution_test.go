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

const quickSteps = 20

// quickConfig is the configuration of apps.QuickTrace: the paper's
// (apps.PaperConfig) on a 16x16 base with 3 levels.
func quickConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.BaseSize = 16
	cfg.MaxLevels = 3
	cfg.RefRatio = 2
	cfg.RegridEvery = 4
	cfg.Cluster.MinWidth = 2
	cfg.Workers = workers
	return cfg
}

// solutionHash runs k for quickSteps coarse steps and hashes the
// solution after every step.
func solutionHash(t *testing.T, k solver.Kernel, workers int) string {
	t.Helper()
	d, err := New(k, quickConfig(workers))
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
	for s := 0; ; s++ {
		put(uint64(s))
		for _, ls := range d.levels {
			put(uint64(len(ls.patches)))
			for _, p := range ls.patches {
				for _, v := range []int{p.Box.Lo[0], p.Box.Lo[1], p.Box.Hi[0], p.Box.Hi[1]} {
					put(uint64(int64(v)))
				}
				for c := 0; c < p.NComp; c++ {
					p.InteriorRows(c, func(_ int, row []float64) {
						for _, v := range row {
							put(math.Float64bits(v))
						}
					})
				}
			}
		}
		if s == quickSteps {
			break
		}
		step(t, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSolution holds every application's field values, step by
// step, to the committed hashes at one worker and at four.
func TestGoldenSolution(t *testing.T) {
	kernels := []solver.Kernel{
		solver.NewEuler(), solver.NewBuckleyLeverett(),
		solver.NewScalarWave(), solver.NewTransport(),
	}
	for _, k := range kernels {
		want := goldenSolutionHashes[k.Name()]
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", k.Name(), workers), func(t *testing.T) {
				if got := solutionHash(t, k, workers); got != want {
					t.Errorf("%s at %d workers: solution hash %s, want %s", k.Name(), workers, got, want)
				}
			})
		}
	}
}
