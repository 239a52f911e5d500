package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"samr/internal/apps"
	"samr/internal/trace"
)

// bg is the background context of the non-cancellation tests.
var bg = context.Background()

// noErr fails the test on a non-nil experiment error.
func noErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// quick returns the reduced-scale trace for tests.
func quick(t *testing.T, app string) *trace.Trace {
	t.Helper()
	tr, err := apps.QuickTrace(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFig1Shape(t *testing.T) {
	tr := quick(t, "BL2D")
	f, err := Fig1(bg, tr, 8)
	noErr(t, err)
	if len(f.Steps) != tr.Len() {
		t.Errorf("Fig1 has %d steps, trace has %d", len(f.Steps), tr.Len())
	}
	if len(f.Data) != 2 {
		t.Fatalf("Fig1 series = %d", len(f.Data))
	}
	for _, s := range f.Data {
		if len(s.Values) != len(f.Steps) {
			t.Errorf("series %s length mismatch", s.Name)
		}
		for i, v := range s.Values {
			if v < 0 {
				t.Errorf("series %s negative at %d: %f", s.Name, i, v)
			}
		}
	}
}

func TestFigModelVsActualAllApps(t *testing.T) {
	for _, app := range apps.Names {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			v, err := FigModelVsActual(bg, quick(t, app), 8)
			noErr(t, err)
			if v.Comm == nil || v.Mig == nil {
				t.Fatal("missing panels")
			}
			// One fewer point than snapshots (first has no previous).
			want := quick(t, app).Len() - 1
			if len(v.Comm.Steps) != want || len(v.Mig.Steps) != want {
				t.Errorf("panel lengths %d/%d, want %d", len(v.Comm.Steps), len(v.Mig.Steps), want)
			}
			// The penalties must be in range.
			for _, s := range v.Comm.Data[1].Values {
				if s < 0 || s > 1 {
					t.Fatalf("beta_c out of range: %f", s)
				}
			}
			for _, s := range v.Mig.Data[1].Values {
				if s < 0 || s > 1 {
					t.Fatalf("beta_m out of range: %f", s)
				}
			}
		})
	}
}

func TestFigModelCapturesMigrationTrend(t *testing.T) {
	// The core claim of the paper on the quick traces: beta_m
	// correlates positively with measured migration for a dynamic app.
	v, err := FigModelVsActual(bg, quick(t, "TP2D"), 8)
	noErr(t, err)
	if v.MigCorrAtLag < 0.1 {
		t.Errorf("beta_m vs migration correlation (best lag) = %.3f; model lost the trend",
			v.MigCorrAtLag)
	}
}

func TestBetaCIsWorstCase(t *testing.T) {
	// The paper: beta_c reflects a worst-case scenario; the hybrid
	// partitioner produces substantially less communication.
	for _, app := range []string{"TP2D", "BL2D"} {
		v, err := FigModelVsActual(bg, quick(t, app), 8)
		noErr(t, err)
		if v.CommAggressor < 0.6 {
			t.Errorf("%s: beta_c >= measured on only %.0f%% of steps; expected mostly above",
				app, 100*v.CommAggressor)
		}
	}
}

func TestClassificationTrajectory(t *testing.T) {
	f, err := ClassificationTrajectory(bg, quick(t, "SC2D"), 8)
	noErr(t, err)
	if len(f.Data) != 4 {
		t.Fatalf("trajectory series = %d", len(f.Data))
	}
	for _, s := range f.Data {
		for _, v := range s.Values {
			if v < 0 || v > 1 {
				t.Fatalf("trajectory coordinate out of [0,1]: %s=%f", s.Name, v)
			}
		}
	}
}

func TestAblationDenominator(t *testing.T) {
	f, err := AblationDenominator(bg, quick(t, "TP2D"), 8)
	noErr(t, err)
	if len(f.Data) != 4 {
		t.Fatalf("series = %d", len(f.Data))
	}
	if len(f.Notes) == 0 || !strings.Contains(f.Notes[0], "pearson") {
		t.Error("denominator ablation must report correlations")
	}
}

func TestAblationPartitionersDomainNoInterLevel(t *testing.T) {
	tb, err := AblationPartitioners(bg, quick(t, "TP2D"), 8)
	noErr(t, err)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if strings.HasPrefix(r[0], "domain-") && r[4] != "0.000" {
			t.Errorf("domain-based %s has inter-level share %s, want 0", r[0], r[4])
		}
	}
}

func TestMetaVsStaticShape(t *testing.T) {
	tb, err := MetaVsStatic(bg, quick(t, "TP2D"), 8)
	noErr(t, err)
	if len(tb.Rows) != 6 { // dynamic + 5 static
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "meta-partitioner(dynamic)" {
		t.Errorf("first row = %s", tb.Rows[0][0])
	}
}

func TestAblationAbsoluteImportanceDiscounts(t *testing.T) {
	f, err := AblationAbsoluteImportance(bg, quick(t, "BL2D"), 8)
	noErr(t, err)
	raw, need := f.Data[0].Values, f.Data[1].Values
	for i := range raw {
		if need[i] > raw[i]+1e-12 {
			t.Fatalf("step %d: weighted need %f exceeds raw penalty %f", i, need[i], raw[i])
		}
	}
}

func TestFigurePrintAndTablePrint(t *testing.T) {
	f, err := Fig1(bg, quick(t, "BL2D"), 4)
	noErr(t, err)
	var buf bytes.Buffer
	f.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "imbalance_pct") || !strings.Contains(out, "fig1") {
		t.Errorf("figure print missing headers:\n%s", out[:min(200, len(out))])
	}
	tb, err := AblationPartitioners(bg, quick(t, "TP2D"), 4)
	noErr(t, err)
	buf.Reset()
	tb.Print(&buf)
	if !strings.Contains(buf.String(), "partitioner") {
		t.Error("table print missing header")
	}
}

func TestAblationPostMappingReducesMigration(t *testing.T) {
	tb, err := AblationPostMapping(bg, quick(t, "TP2D"), 8)
	noErr(t, err)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Rows come in (base, postmap) pairs; the wrapped row must not
	// migrate more than its base.
	for i := 0; i < len(tb.Rows); i += 2 {
		base, wrapped := tb.Rows[i], tb.Rows[i+1]
		if !strings.HasPrefix(wrapped[0], "postmap(") {
			t.Fatalf("row %d is %s, want postmap pair", i+1, wrapped[0])
		}
		var bm, wm float64
		fmt.Sscanf(base[1], "%f", &bm)
		fmt.Sscanf(wrapped[1], "%f", &wm)
		if wm > bm+1e-9 {
			t.Errorf("%s migration %.4f exceeds base %.4f", wrapped[0], wm, bm)
		}
		// Load balance untouched by relabeling.
		if base[2] != wrapped[2] {
			t.Errorf("post-mapping changed imbalance: %s vs %s", base[2], wrapped[2])
		}
	}
}

func TestFigureWriteCSV(t *testing.T) {
	f := &Figure{
		ID: "x", Title: "t",
		Steps: []int{1, 2},
		Data: []Series{
			{Name: "a", Values: []float64{0.5, 1.25}},
			{Name: "b", Values: []float64{2, 3}},
		},
		Notes: []string{"note"},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "step,a,b\n1,0.5,2\n2,1.25,3\n# note\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestFigureWriteCSVRaggedSeries(t *testing.T) {
	f := &Figure{
		Steps: []int{1, 2},
		Data:  []Series{{Name: "a", Values: []float64{7}}},
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2,\n") {
		t.Errorf("missing empty cell for ragged series: %q", buf.String())
	}
}
