package eval

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// The figure drivers are exercised end-to-end at a tiny scale; the
// assertions check the qualitative shapes the paper reports, not
// absolute values.

func tinyWorkloads(t *testing.T) *Workloads {
	t.Helper()
	w, err := NewWorkloads(Scale{
		WebClients: 600, WebURLs: 120,
		NewsDocs: 1200, NewsVocab: 250,
		SynRows: 1200, SynCols: 100,
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// formatter is a rendered Table or Figure.
type formatter interface{ Format(io.Writer) }

// checkGolden compares the rendering of outs with testdata/<name>.golden
// byte for byte, or rewrites the file under -update. Only clock-free
// outputs belong here: a timing panel differs run to run.
func checkGolden[F formatter](t *testing.T, name string, outs ...F) {
	t.Helper()
	var buf bytes.Buffer
	for _, o := range outs {
		o.Format(&buf)
	}
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("%s output differs from %s:\n--- want ---\n%s--- got ---\n%s", name, golden, want, got)
	}
}

func TestFig2Shapes(t *testing.T) {
	figs := Fig2()
	if len(figs) != 2 {
		t.Fatalf("Fig2 returned %d figures", len(figs))
	}
	checkGolden(t, "fig2", figs...)
	// 2a: every series starts at ~0 and ends at 1; larger (r,l) is
	// lower at s=0.3.
	a := figs[0]
	for _, s := range a.Series {
		if s.Y[0] > 1e-9 {
			t.Errorf("%s: P(0) = %v", s.Name, s.Y[0])
		}
		if s.Y[len(s.Y)-1] < 1-1e-9 {
			t.Errorf("%s: P(1) = %v", s.Name, s.Y[len(s.Y)-1])
		}
	}
	at := func(s series, x float64) float64 {
		for i := range s.X {
			if s.X[i] >= x {
				return s.Y[i]
			}
		}
		return s.Y[len(s.Y)-1]
	}
	if at(a.Series[0], 0.3) <= at(a.Series[3], 0.3) {
		t.Error("fig2a: larger (r,l) should be lower at s=0.3")
	}
	// 2b: Q_{20,20,100} closer to P than Q_{20,20,40} at s=0.5.
	b := figs[1]
	p, q40, q100 := at(b.Series[0], 0.5), at(b.Series[1], 0.5), at(b.Series[2], 0.5)
	if abs(q100-p) > abs(q40-p)+1e-9 {
		t.Errorf("fig2b: k=100 (%v) not closer to P (%v) than k=40 (%v)", q100, p, q40)
	}
}

func TestFig3LShaped(t *testing.T) {
	w := tinyWorkloads(t)
	figs, err := Fig3(w)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3", figs...)
	full := figs[0].Series[0]
	// The near-zero bucket dominates everything else combined.
	var rest float64
	for _, y := range full.Y[1:] {
		rest += y
	}
	if full.Y[0] < 10*rest {
		t.Errorf("fig3a not L-shaped: zero bucket %v vs rest %v", full.Y[0], rest)
	}
	// The zoomed panel has some mass (the planted resource groups).
	zoom := figs[1].Series[0]
	var zoomMass float64
	for _, y := range zoom.Y {
		zoomMass += y
	}
	if zoomMass == 0 {
		t.Error("fig3b has no interesting pairs at all")
	}
}

func TestFig4ShapeAndOOM(t *testing.T) {
	w := tinyWorkloads(t)
	// Tight budget so the lowest threshold blows up.
	table, rows, err := Fig4(w, []float64{0.001, 0.01, 0.05}, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Column counts shrink as the threshold rises.
	for i := 1; i < len(rows); i++ {
		if rows[i].ColumnsAfterPrune > rows[i-1].ColumnsAfterPrune {
			t.Error("support pruning kept more columns at a higher threshold")
		}
	}
	// Lowest threshold: a-priori OOM (the paper's '-' row).
	if !rows[0].AprioriOOM {
		t.Error("a-priori did not hit the memory budget at the lowest support")
	}
	// Table rendering includes the '-'.
	var buf bytes.Buffer
	table.Format(&buf)
	if !strings.Contains(buf.String(), "-") {
		t.Error("table missing the OOM marker")
	}
	// All schemes produced times on every row.
	for _, r := range rows {
		if r.MH <= 0 || r.KMH <= 0 || r.HLSH <= 0 || r.MLSH <= 0 {
			t.Errorf("missing scheme time in row %+v", r)
		}
	}
}

// TestFig4DefaultsAprioriCountsMost holds Fig. 4's claims as
// deterministic work at the product's default thresholds and budget:
// a-priori is out of memory on the lowest-support row alone, and on
// every row the C(columns, 2) pairs it counts are at least ten times
// the candidates any scheme hands to verification.
func TestFig4DefaultsAprioriCountsMost(t *testing.T) {
	_, rows, err := Fig4(tinyWorkloads(t), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.AprioriOOM != (i == 0) {
			t.Errorf("row %d (support %v): a-priori out of memory = %v", i, r.SupportThreshold, r.AprioriOOM)
		}
		f := r.ColumnsAfterPrune
		counted := f * (f - 1) / 2
		for name, c := range map[string]int{"MH": r.MHCandidates, "K-MH": r.KMHCandidates, "H-LSH": r.HLSHCandidates, "M-LSH": r.MLSHCandidates} {
			if c <= 0 || counted < 10*c {
				t.Errorf("row %d: a-priori counts %d pairs, %s verifies %d candidates", i, counted, name, c)
			}
		}
	}
}

func TestFig5MHQualitySharpensWithK(t *testing.T) {
	w := tinyWorkloads(t)
	figs, err := Fig5(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 {
		t.Fatalf("%d panels", len(figs))
	}
	// The quality panels a and c; b and d are wall-clock times.
	checkGolden(t, "fig5ac", figs[0], figs[2])
	// 5b: time grows with k.
	times := figs[1].Series[0]
	if times.Y[len(times.Y)-1] < times.Y[0] {
		t.Error("fig5b: MH time did not grow with k")
	}
	// 5a: the largest-k S-curve must catch (almost) everything in the
	// top bucket.
	top := figs[0].Series[len(figs[0].Series)-1]
	if last := top.Y[len(top.Y)-1]; last < 0.9 {
		t.Errorf("fig5a: k=200 top-bucket recall %v", last)
	}
}

func TestFig6KMHSublinear(t *testing.T) {
	w := tinyWorkloads(t)
	figs, err := Fig6(w)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: four panels, series non-empty.
	if len(figs) != 4 || len(figs[0].Series) == 0 {
		t.Fatalf("bad panels")
	}
	checkGolden(t, "fig6ac", figs[0], figs[2])
	// Top bucket recall at k=200 high.
	top := figs[0].Series[len(figs[0].Series)-1]
	if last := top.Y[len(top.Y)-1]; last < 0.85 {
		t.Errorf("fig6a: k=200 top-bucket recall %v", last)
	}
}

func TestFig7HLSHTradeoffs(t *testing.T) {
	w := tinyWorkloads(t)
	figs, err := Fig7(w)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7ac", figs[0], figs[2])
	// 7c-equivalent: more runs never reduce recall in the top bucket.
	lSweep := figs[2].Series
	first, last := lSweep[0], lSweep[len(lSweep)-1]
	if len(first.Y) > 0 && len(last.Y) > 0 {
		if last.Y[len(last.Y)-1] < first.Y[len(first.Y)-1]-1e-9 {
			t.Error("fig7: more runs reduced top-bucket recall")
		}
	}
}

func TestFig8MLSHTradeoffs(t *testing.T) {
	w := tinyWorkloads(t)
	figs, err := Fig8(w)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8ac", figs[0], figs[2])
	// More bands (larger l) must not reduce top-bucket recall.
	lSweep := figs[2].Series
	first, last := lSweep[0], lSweep[len(lSweep)-1]
	if len(first.Y) > 0 && len(last.Y) > 0 {
		if last.Y[len(last.Y)-1] < first.Y[len(first.Y)-1]-1e-9 {
			t.Error("fig8: more bands reduced top-bucket recall")
		}
	}
	// Larger r (sharper filter) should not increase false positives:
	// compare ratios in the lowest shown bucket.
	rSweep := figs[0].Series
	if len(rSweep) >= 2 && len(rSweep[0].Y) > 0 {
		low0, lowN := rSweep[0].Y[0], rSweep[len(rSweep)-1].Y[0]
		if lowN > low0+0.3 {
			t.Errorf("fig8: larger r increased low-similarity capture: %v -> %v", low0, lowN)
		}
	}
}

func TestFig9FeasibleAndOrdered(t *testing.T) {
	w := tinyWorkloads(t)
	figs, points, err := Fig9(w, []float64{0.05, 0.20})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("%d figures", len(figs))
	}
	feasible := 0
	for _, p := range points {
		if p.Feasible {
			feasible++
			if p.FNRate > p.Tolerance {
				t.Errorf("point %+v violates its tolerance", p)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no algorithm found a feasible setting")
	}
	// Looser tolerance can only help (time non-increasing per algo).
	byAlgo := map[string][]Fig9Point{}
	for _, p := range points {
		if p.Feasible {
			byAlgo[p.Algorithm.String()] = append(byAlgo[p.Algorithm.String()], p)
		}
	}
	for algo, ps := range byAlgo {
		for i := 1; i < len(ps); i++ {
			if ps[i].TotalMS > ps[i-1].TotalMS*3 {
				t.Errorf("%s: time exploded as tolerance loosened: %+v", algo, ps)
			}
		}
	}
}

func TestFig1RecoversPlantedStructure(t *testing.T) {
	w := tinyWorkloads(t)
	table, err := Fig1(w)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig1", table)
	planted := 0
	for _, row := range table.Rows {
		if row[len(row)-1] == "planted collocation" {
			planted++
		}
	}
	if planted < len(w.news.PlantedPairs)/2 {
		t.Errorf("only %d/%d planted collocations mined", planted, len(w.news.PlantedPairs))
	}
}

func TestSyntheticExperimentHighBandsRecalled(t *testing.T) {
	w := tinyWorkloads(t)
	table, err := SyntheticExperiment(w)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "synthetic", table)
	if len(table.Rows) != 4 {
		t.Fatalf("%d algorithm rows", len(table.Rows))
	}
	// Every algorithm's false-positive column must be 0 (verification).
	for _, row := range table.Rows {
		if row[len(row)-1] != "0" {
			t.Errorf("%s reported false positives after verification: %v", row[0], row)
		}
	}
}

func TestRulesExperiment(t *testing.T) {
	w := tinyWorkloads(t)
	table, err := RulesExperiment(w)
	if err != nil {
		t.Fatal(err)
	}
	plantedRules := 0
	for _, row := range table.Rows {
		if row[len(row)-1] == "true" {
			plantedRules++
		}
	}
	if plantedRules == 0 {
		t.Error("no planted rules recovered")
	}
	// The rendered table pins §6's output — every rule, its confidence
	// and support — byte for byte.
	checkGolden(t, "rules", table)
}

func TestCompositeExperiment(t *testing.T) {
	w := tinyWorkloads(t)
	table, err := CompositeExperiment(w)
	if err != nil {
		t.Fatal(err)
	}
	// Both kinds of §7 rule turn up at these thresholds.
	for _, kind := range []string{" AND ", " OR "} {
		found := false
		for _, row := range table.Rows {
			found = found || strings.Contains(row[0], kind)
		}
		if !found {
			t.Errorf("no%srule in the composite table", kind)
		}
	}
	checkGolden(t, "composite", table)
}

func TestOptimizerExperiment(t *testing.T) {
	w := tinyWorkloads(t)
	table, err := OptimizerExperiment(w)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "optimizer", table)
	if len(table.Rows) != 4 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	// Every chosen parameter point must be a feasible, positive pair.
	for _, row := range table.Rows {
		if row[3] == "0" || row[4] == "0" {
			t.Errorf("optimizer returned degenerate parameters: %v", row)
		}
	}
}

func TestQuestExperiment(t *testing.T) {
	sc := Scale{SynRows: 1500, SynCols: 120, Seed: 3,
		WebClients: 1, WebURLs: 1, NewsDocs: 1, NewsVocab: 1}
	table, err := QuestExperiment(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	// A-priori must report zero below-floor pairs (it cannot see them).
	if table.Rows[0][4] != "0" {
		t.Errorf("a-priori claims below-floor pairs: %v", table.Rows[0])
	}
}

func TestFormatters(t *testing.T) {
	f := Figure{ID: "x", Title: "t", XLabel: "a", YLabel: "b",
		Series: []series{{Name: "s", X: []float64{1}, Y: []float64{2}}},
		Notes:  []string{"n"}}
	var buf bytes.Buffer
	f.Format(&buf)
	out := buf.String()
	for _, want := range []string{"x", "t", "series", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	tb := Table{ID: "y", Title: "tt", Header: []string{"h1", "h2"},
		Rows: [][]string{{"a", "bb"}}, Notes: []string{"m"}}
	buf.Reset()
	tb.Format(&buf)
	out = buf.String()
	for _, want := range []string{"y", "h1", "bb", "note: m"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
