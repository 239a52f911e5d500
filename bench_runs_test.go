package samr

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchRunsSchema is the schema every committed BENCH_PR<N>.json
// follows: the runs behind a PR's numbers, one JSON line of
// `bash bench/run.sh` per side of every alternating pair. A file may
// add a third side, the anchor: runs of the commit BENCH_ANCHOR names,
// each made right after the pair that carries it.
const benchRunsSchema = "samr-bench-runs/1"

// minAnchorRuns is how many anchor runs a file with an anchor side
// takes per workload and seed.
const minAnchorRuns = 3

// benchRuns is one BENCH_PR<N>.json.
type benchRuns struct {
	Schema       string `json:"schema"`
	PR           int    `json:"pr"`
	Claim        string `json:"claim"`
	ParentCommit string `json:"parent_commit"`
	ChangeCommit string `json:"change_commit"`
	// AnchorCommit is the commit of the anchor side, set when the pairs
	// carry one.
	AnchorCommit string `json:"anchor_commit"`
	GoVersion    string `json:"go_version"`
	NProc        int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Command      string `json:"command"`
	// Seed is every pair's seed unless the pair names its own.
	Seed      int                      `json:"seed"`
	Method    string                   `json:"method"`
	Workloads map[string]benchWorkload `json:"workloads"`
}

type benchWorkload struct {
	Pairs []benchPair `json:"pairs"`
}

// benchPair is one alternating pair: both sides' run lines and the side
// that ran first. Batch numbers a later series of pairs, rerun after the
// first: the side that runs first alternates within a batch.
type benchPair struct {
	Pair   int       `json:"pair"`
	First  string    `json:"first"`
	Seed   *int      `json:"seed"`
	Batch  int       `json:"batch"`
	Parent *benchRun `json:"parent"`
	Change *benchRun `json:"change"`
	// Anchor, when set, ran right after the pair's two sides.
	Anchor *benchRun `json:"anchor"`
}

// benchRun is the JSON line `bash bench/run.sh` ends a run with.
type benchRun struct {
	Correct   *bool                  `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]benchMetric `json:"metrics"`
}

type benchMetric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// benchDirections reads each end-to-end metric's better direction from
// BENCHMARK.json.
func benchDirections(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	out := map[string]string{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Better
	}
	return out
}

// checkBenchRun checks one side of a pair.
func checkBenchRun(r *benchRun, dirs map[string]string) error {
	switch {
	case r == nil:
		return fmt.Errorf("side missing")
	case r.Correct == nil:
		return fmt.Errorf("no correct field")
	case r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted:
		return fmt.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
	case len(r.Metrics) == 0:
		return fmt.Errorf("no metrics")
	}
	for name, m := range r.Metrics {
		if m.Value == nil || m.Unit == "" {
			return fmt.Errorf("metric %s without a value or a unit", name)
		}
		if dirs[name] == "" {
			return fmt.Errorf("metric %s is not an end-to-end metric of BENCHMARK.json", name)
		}
	}
	return nil
}

// median and quartiles of xs (sorted in place), by linear
// interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// benchAnchor reads the commit BENCH_ANCHOR names: the one every runs
// file's anchor side measures, so that change ÷ anchor is comparable
// across the files that share it.
func benchAnchor(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("BENCH_ANCHOR")
	if err != nil {
		t.Fatal(err)
	}
	anchor := strings.TrimSpace(string(raw))
	if !regexp.MustCompile(`^[0-9a-f]{7,40}$`).MatchString(anchor) {
		t.Fatalf("BENCH_ANCHOR holds %q, want one commit hash", anchor)
	}
	return anchor
}

// TestBenchRuns checks every committed BENCH_PR<N>.json against
// samr-bench-runs/1 — the header fields, both sides of every pair, the
// metric names of BENCHMARK.json, pairs numbered in order and the side
// that runs first alternating within a batch, and, in a file with an
// anchor side, at least three anchor runs per workload and seed — and
// recomputes, per workload, seed and metric, both sides' medians, the
// parent's interquartile range and the pairs each side won, and each
// side's median over the anchor's. The anchor ratios are the trajectory
// across files that share an anchor; a file without an anchor side is
// logged as not comparable with any other. With -v it prints all of
// it, file by file, under the machine that ran it:
//
//	go test -v -run TestBenchRuns .
func TestBenchRuns(t *testing.T) {
	files, err := filepath.Glob("BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_PR*.json committed")
	}
	dirs := benchDirections(t)
	var read []benchFile
	anchor := benchAnchor(t)
	name := regexp.MustCompile(`^BENCH_PR([0-9]+)\.json$`)
	hex40 := regexp.MustCompile(`^[0-9a-f]{40}$`)
	sort.Slice(files, func(i, j int) bool {
		a, _ := strconv.Atoi(name.FindStringSubmatch(files[i])[1])
		b, _ := strconv.Atoi(name.FindStringSubmatch(files[j])[1])
		return a < b
	})
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var br benchRuns
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&br); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		pr, _ := strconv.Atoi(name.FindStringSubmatch(file)[1])
		switch {
		case br.Schema != benchRunsSchema:
			t.Errorf("%s: schema %q, want %q", file, br.Schema, benchRunsSchema)
		case br.PR != pr:
			t.Errorf("%s: pr %d, want %d", file, br.PR, pr)
		case !hex40.MatchString(br.ParentCommit):
			t.Errorf("%s: parent_commit %q is not a commit hash", file, br.ParentCommit)
		case br.Claim == "" || br.ChangeCommit == "" || br.GoVersion == "" || br.CPUModel == "" || br.Command == "" || br.Method == "":
			t.Errorf("%s: an empty header field", file)
		case br.NProc < 1 || br.Seed < 1:
			t.Errorf("%s: nproc %d, seed %d", file, br.NProc, br.Seed)
		case len(br.Workloads) == 0:
			t.Errorf("%s: no workloads", file)
		}
		t.Logf("%s (%s, %d CPUs, %s): %s", file, br.CPUModel, br.NProc, br.GoVersion, br.Claim)
		switch anchored := hasAnchorSide(br); {
		case !anchored && br.AnchorCommit != "":
			t.Errorf("%s: anchor_commit %s without an anchor side", file, br.AnchorCommit)
		case !anchored:
			t.Logf("  no anchor side: its medians are not comparable with another file's")
		case !hex40.MatchString(br.AnchorCommit):
			t.Errorf("%s: anchor_commit %q is not a commit hash", file, br.AnchorCommit)
		case strings.HasPrefix(br.AnchorCommit, anchor):
			t.Logf("  anchor %s, BENCH_ANCHOR's: comparable with every file on it", br.AnchorCommit[:7])
		default:
			t.Logf("  anchor %s, not BENCH_ANCHOR's %s: comparable only with files on the same anchor", br.AnchorCommit[:7], anchor)
		}
		bf := benchFile{name: file, runs: br, values: map[string]map[int]map[string]*benchSides{}}
		for _, w := range sortedKeys(br.Workloads) {
			bf.values[w] = checkBenchWorkload(t, file, w, br.Workloads[w].Pairs, br.Seed, dirs, hasAnchorSide(br))
		}
		read = append(read, bf)
	}
	logTrajectory(t, read)
}

// benchFile is one runs file as TestBenchRuns read it: its values per
// workload, seed and metric.
type benchFile struct {
	name   string
	runs   benchRuns
	values map[string]map[int]map[string]*benchSides
}

// benchSides holds one metric's values on one seed, run by run, per
// side.
type benchSides struct{ parent, change, anchor []float64 }

func sortedKeys[K int | string, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// addedBy returns the commit that added file, or "" when git cannot
// say: no git or no repository, or the file is not committed yet.
func addedBy(file string) string {
	out, err := exec.Command("git", "log", "--diff-filter=A", "--format=%H", "--", file).Output()
	if err != nil {
		return ""
	}
	commits := strings.Fields(string(out))
	if len(commits) == 0 {
		return ""
	}
	return commits[len(commits)-1]
}

// logTrajectory reports ROADMAP item 32's acceptance; it gates nothing.
// When a later runs file's parent is the commit that added an earlier
// one, and both share an anchor, that commit ran in both files: as the
// earlier file's change side and the later file's parent side. Its
// medians over each file's own anchor median should then agree within
// the anchor's spread. Per workload, seed and metric the report logs
// change ÷ anchor of the first against parent ÷ anchor of the second,
// and each file's anchor IQR over its median; "apart" marks a
// difference wider than the larger of the two. The remedy for "apart"
// is more interleaving, never a looser bound.
func logTrajectory(t *testing.T, files []benchFile) {
	t.Helper()
	relIQR := func(xs []float64) float64 {
		xs = slices.Clone(xs)
		return (quantile(xs, 0.75) - quantile(xs, 0.25)) / quantile(xs, 0.5)
	}
	median := func(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }
	for i, a := range files {
		if a.runs.AnchorCommit == "" {
			continue
		}
		added := addedBy(a.name)
		if added == "" {
			t.Logf("trajectory: git does not say which commit added %s, so no later file can be joined to it", a.name)
			continue
		}
		for _, b := range files[i+1:] {
			if b.runs.ParentCommit != added || b.runs.AnchorCommit != a.runs.AnchorCommit {
				continue
			}
			t.Logf("trajectory: %s's change and %s's parent are both %s, on anchor %s", a.name, b.name, added[:7], a.runs.AnchorCommit[:7])
			for _, w := range sortedKeys(a.values) {
				for _, s := range sortedKeys(a.values[w]) {
					for _, m := range sortedKeys(a.values[w][s]) {
						x, y := a.values[w][s][m], b.values[w][s][m]
						if y == nil || len(x.anchor) == 0 || len(y.anchor) == 0 {
							continue
						}
						r1 := median(x.change) / median(x.anchor)
						r2 := median(y.parent) / median(y.anchor)
						i1, i2 := relIQR(x.anchor), relIQR(y.anchor)
						verdict := "agree"
						if math.Abs(r2-r1) > max(i1, i2) {
							verdict = "apart"
						}
						t.Logf("  %-16s seed %d %-14s change ÷ anchor %.3f, then parent ÷ anchor %.3f (%+.3f); anchor IQR ÷ median %.3f and %.3f: %s",
							w, s, m, r1, r2, r2-r1, i1, i2, verdict)
					}
				}
			}
		}
	}
}

// hasAnchorSide reports whether any pair of br carries an anchor run.
func hasAnchorSide(br benchRuns) bool {
	for _, w := range br.Workloads {
		for _, p := range w.Pairs {
			if p.Anchor != nil {
				return true
			}
		}
	}
	return false
}

// checkBenchWorkload checks one workload's pairs and logs, per seed and
// metric, parent median [parent IQR] → change median and pairs won, and
// when the file has an anchor side (anchored), which then every seed of
// the workload needs, each side's median over the anchor's. It returns
// the values it read, by seed and metric.
func checkBenchWorkload(t *testing.T, file, w string, pairs []benchPair, seed int, dirs map[string]string, anchored bool) map[int]map[string]*benchSides {
	t.Helper()
	if len(pairs) == 0 {
		t.Errorf("%s %s: no pairs", file, w)
		return nil
	}
	bySeed := map[int]map[string]*benchSides{}
	anchorRuns := map[int]int{}
	for i, p := range pairs {
		if p.Pair != i {
			t.Errorf("%s %s: pair %d numbered %d", file, w, i, p.Pair)
		}
		if p.First != "parent" && p.First != "change" {
			t.Errorf("%s %s pair %d: first %q", file, w, i, p.First)
		}
		if i > 0 && p.Batch == pairs[i-1].Batch && p.First == pairs[i-1].First {
			t.Errorf("%s %s pair %d: %s ran first twice in a row", file, w, i, p.First)
		}
		sides := []*benchRun{p.Parent, p.Change}
		if p.Anchor != nil {
			sides = append(sides, p.Anchor)
		}
		for _, r := range sides {
			if err := checkBenchRun(r, dirs); err != nil {
				t.Errorf("%s %s pair %d: %v", file, w, i, err)
				return nil
			}
			if len(r.Metrics) != len(p.Parent.Metrics) {
				t.Errorf("%s %s pair %d: the sides report different metrics", file, w, i)
				return nil
			}
		}
		s := seed
		if p.Seed != nil {
			s = *p.Seed
		}
		if bySeed[s] == nil {
			bySeed[s] = map[string]*benchSides{}
		}
		if p.Anchor != nil {
			anchorRuns[s]++
		}
		for m, pv := range p.Parent.Metrics {
			cv, ok := p.Change.Metrics[m]
			if !ok {
				t.Errorf("%s %s pair %d: change lacks %s", file, w, i, m)
				return nil
			}
			if bySeed[s][m] == nil {
				bySeed[s][m] = &benchSides{}
			}
			bySeed[s][m].parent = append(bySeed[s][m].parent, *pv.Value)
			bySeed[s][m].change = append(bySeed[s][m].change, *cv.Value)
			if p.Anchor != nil {
				av, ok := p.Anchor.Metrics[m]
				if !ok {
					t.Errorf("%s %s pair %d: anchor lacks %s", file, w, i, m)
					return nil
				}
				bySeed[s][m].anchor = append(bySeed[s][m].anchor, *av.Value)
			}
		}
	}
	for _, s := range sortedKeys(bySeed) {
		ratios := anchored
		if anchored && anchorRuns[s] < minAnchorRuns {
			t.Errorf("%s %s seed %d: %d anchor runs, want at least %d", file, w, s, anchorRuns[s], minAnchorRuns)
			ratios = false
		}
		for _, m := range sortedKeys(bySeed[s]) {
			v := bySeed[s][m]
			won := 0
			for i := range v.parent {
				if (dirs[m] == "lower" && v.change[i] < v.parent[i]) || (dirs[m] == "higher" && v.change[i] > v.parent[i]) {
					won++
				}
			}
			p := slices.Clone(v.parent)
			pm, q1, q3 := quantile(p, 0.5), quantile(p, 0.25), quantile(p, 0.75)
			cm := quantile(slices.Clone(v.change), 0.5)
			t.Logf("  %-16s seed %d %-14s parent %.4g [IQR %.4g–%.4g] → change %.4g (%+.1f%%), change better in %d of %d pairs",
				w, s, m, pm, q1, q3, cm, 100*(cm-pm)/pm, won, len(v.parent))
			if !ratios {
				continue
			}
			a := slices.Clone(v.anchor)
			am, a1, a3 := quantile(a, 0.5), quantile(a, 0.25), quantile(a, 0.75)
			t.Logf("  %-16s seed %d %-14s anchor %.4g [IQR %.4g–%.4g] over %d runs: parent ÷ anchor %.3f, change ÷ anchor %.3f",
				w, s, m, am, a1, a3, len(v.anchor), pm/am, cm/am)
		}
	}
	return bySeed
}
