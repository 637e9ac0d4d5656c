package eval

import (
	"math"
	"testing"

	"assocmine"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
)

func smallWorkloads(t *testing.T) *Workloads {
	t.Helper()
	w, err := NewWorkloads(Scale{
		WebClients: 800, WebURLs: 150,
		NewsDocs: 1500, NewsVocab: 300,
		SynRows: 1500, SynCols: 120,
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewGroundTruth(t *testing.T) {
	m := matrix.MustNew(4, [][]int32{
		{0, 1, 2}, {0, 1, 2}, {0, 3},
	})
	g, err := NewGroundTruth(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if g.CountAtLeast(0.99) != 1 {
		t.Errorf("CountAtLeast(0.99) = %d", g.CountAtLeast(0.99))
	}
	if s, ok := g.Sim[pairs.Make(0, 1)]; !ok || s != 1 {
		t.Errorf("Sim[0,1] = %v, %v", s, ok)
	}
	if g.CountAtLeast(0.2) != len(g.Pairs) {
		t.Error("CountAtLeast(floor) should count all pairs")
	}
}

func TestComputeSCurve(t *testing.T) {
	m := matrix.MustNew(10, [][]int32{
		{0, 1, 2, 3}, {0, 1, 2, 3}, // sim 1
		{4, 5, 6}, {4, 5, 9}, // sim 0.5
		{7}, {8}, // sim 0
	})
	g, err := NewGroundTruth(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	edges := []float64{0, 0.25, 0.75, 1.0}
	// Algorithm found the sim-1 pair but not the sim-0.5 pair.
	found := []assocmine.Pair{{I: 0, J: 1}}
	sc := ComputeSCurve(g, found, edges)
	if sc.Actual[2] != 1 || sc.Found[2] != 1 {
		t.Errorf("high bucket: actual %d found %d", sc.Actual[2], sc.Found[2])
	}
	if sc.Actual[1] != 1 || sc.Found[1] != 0 {
		t.Errorf("mid bucket: actual %d found %d", sc.Actual[1], sc.Found[1])
	}
	if sc.Ratio(2) != 1 || sc.Ratio(1) != 0 {
		t.Errorf("ratios %v %v", sc.Ratio(2), sc.Ratio(1))
	}
	if sc.Ratio(0) != 0 {
		t.Error("empty bucket ratio should be 0")
	}
	if mid := sc.Mid(1); math.Abs(mid-0.5) > 1e-12 {
		t.Errorf("Mid(1) = %v", mid)
	}
}

func TestScoreCandidates(t *testing.T) {
	m := matrix.MustNew(10, [][]int32{
		{0, 1, 2, 3}, {0, 1, 2, 3}, // sim 1: pair (0,1)
		{4, 5, 6}, {4, 5, 9}, // sim 0.5: pair (2,3)
		{7}, {8},
	})
	g, _ := NewGroundTruth(m, 0.1)
	found := []assocmine.Pair{
		{I: 0, J: 1}, // true positive at cutoff 0.8
		{I: 2, J: 3}, // below cutoff: false positive
		{I: 4, J: 5}, // sim 0: false positive
		{I: 0, J: 1}, // duplicate: ignored
	}
	q, err := ScoreCandidates(g, found, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if q.TruePos != 1 || q.FalsePos != 2 || q.FalseNeg != 0 {
		t.Errorf("quality = %+v", q)
	}
	if q.FNRate() != 0 {
		t.Errorf("FNRate = %v", q.FNRate())
	}
	// Cutoff below the truth floor must error.
	if _, err := ScoreCandidates(g, found, 0.05); err == nil {
		t.Error("cutoff below floor accepted")
	}
	// Missing pair counts as FN.
	q, _ = ScoreCandidates(g, nil, 0.8)
	if q.FalseNeg != 1 || q.FNRate() != 1 {
		t.Errorf("all-missed quality = %+v", q)
	}
}

func TestHistogramMassConservation(t *testing.T) {
	rng := hashing.NewSplitMix64(3)
	b := matrix.NewBuilder(200, 30)
	for c := 0; c < 30; c++ {
		for r := 0; r < 200; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
			}
		}
	}
	m := b.Build()
	counts, err := Histogram(m, DefaultEdges())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	want := int64(30 * 29 / 2)
	if total != want {
		t.Errorf("histogram mass %d, want %d", total, want)
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := hashing.NewSplitMix64(5)
	b := matrix.NewBuilder(300, 40)
	for c := 0; c < 40; c++ {
		for r := 0; r < 300; r++ {
			if rng.Float64() < 0.1 {
				b.Set(r, c)
			}
		}
	}
	m := b.Build()
	edges := DefaultEdges()
	d, err := SampleDistribution(m, 40, edges, 7) // full sample: exact
	if err != nil {
		t.Fatal(err)
	}
	if len(d.S) != len(d.Count) || len(d.S) != len(edges)-1 {
		t.Fatalf("distribution has %d similarities, %d counts, %d buckets", len(d.S), len(d.Count), len(edges)-1)
	}
	var mass float64
	for _, c := range d.Count {
		mass += c
	}
	want := float64(40 * 39 / 2)
	if math.Abs(mass-want) > 1e-6 {
		t.Errorf("full-sample mass %v, want %v", mass, want)
	}
	// Subsample: mass still scales to the full pair count.
	d2, err := SampleDistribution(m, 20, edges, 7)
	if err != nil {
		t.Fatal(err)
	}
	mass = 0
	for _, c := range d2.Count {
		mass += c
	}
	if math.Abs(mass-want) > 1e-6 {
		t.Errorf("scaled mass %v, want %v", mass, want)
	}
	if _, err := SampleDistribution(m, 1, edges, 7); err == nil {
		t.Error("sampleCols=1 accepted")
	}
}

func TestExecuteProducesBothSets(t *testing.T) {
	w := smallWorkloads(t)
	run, err := Execute(w.Web.Data, assocmine.Config{
		Algorithm: assocmine.MinLSH, Threshold: 0.5, K: 50, R: 5, L: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Verified) > len(run.Candidates) {
		t.Errorf("verified %d > candidates %d", len(run.Verified), len(run.Candidates))
	}
	for _, p := range run.Verified {
		if p.Similarity < 0.5 {
			t.Errorf("verified pair %+v below threshold", p)
		}
	}
	if run.Stats.VerifyTime == 0 && len(run.Candidates) > 0 {
		t.Error("verify time not recorded")
	}
}
