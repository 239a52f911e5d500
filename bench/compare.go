package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict of one workload x end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's repetitions in the baseline a and the
// candidate b. Past the bound, a change is called only when the two
// sides' ranges do not overlap: where every repetition of one side
// reads better than every repetition of the other, it is real; where
// they overlap, the spread is wider than the claim and the answer is
// unresolved, not unchanged.
func judge(d metricDef, a, b metricValue) (ratio float64, verdict string) {
	if a.Value == 0 {
		return 0, verdictUnresolved
	}
	ratio = b.Value / a.Value
	worse, better := ratio-1, 1-ratio // for lower-is-better
	if d.Better == "higher" {
		worse, better = better, worse
	}
	apart := a.Max < b.Min || b.Max < a.Min
	switch {
	case worse > d.Bound && apart:
		return ratio, verdictRegressed
	case better > d.Bound && apart:
		return ratio, verdictImproved
	case worse > d.Bound || better > d.Bound:
		return ratio, verdictUnresolved
	}
	return ratio, verdictOK
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &resultFile{}
	if err := json.Unmarshal(raw, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the ratio b/a, each side's range, the bound and the
// verdict; for traced results it lists the exact counts that differ.
// It returns 1 on any regression or any higher fail ratio.
func compareFiles(pathA, pathB string) int {
	var files [2]*resultFile
	for i, path := range []string{pathA, pathB} {
		var err error
		if files[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compareResults(os.Stdout, files[0], files[1])
}

func compareResults(w *os.File, a, b *resultFile) int {
	fmt.Fprintf(w, "a: commit %v seed %v    b: commit %v seed %v    ratio = b/a\n", a.Env["commit"], a.Env["seed"], b.Env["commit"], b.Env["seed"])
	bad := 0
	for _, ra := range a.Results {
		var rb *workloadResult
		for _, r := range b.Results {
			if r.Workload == ra.Workload && r.Traced == ra.Traced {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "%s: missing from b\n", ra.Workload)
			bad++
			continue
		}
		if rb.FailRatio > ra.FailRatio {
			fmt.Fprintf(w, "%-16s fail_ratio %g -> %g regressed\n", ra.Workload, ra.FailRatio, rb.FailRatio)
			bad++
		}
		if ra.Traced {
			differ := 0
			for _, d := range perLayer {
				if d.Exact && ra.Metrics[d.Name].Value != rb.Metrics[d.Name].Value {
					fmt.Fprintf(w, "%-16s %-28s %g -> %g differs (an exact count)\n", ra.Workload, d.Name, ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value)
					differ++
				}
			}
			fmt.Fprintf(w, "%-16s traced: %d exact counts differ\n", ra.Workload, differ)
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			ratio, verdict := judge(d, va, vb)
			fmt.Fprintf(w, "%-16s %-14s %12.6g -> %12.6g %-4s x%.3f  a[%.6g..%.6g] b[%.6g..%.6g] bound %2.0f%% %s\n",
				ra.Workload, d.Name, va.Value, vb.Value, d.Unit, ratio, va.Min, va.Max, vb.Min, vb.Max, d.Bound*100, verdict)
			if verdict == verdictRegressed {
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
