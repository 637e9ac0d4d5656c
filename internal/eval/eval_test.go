package eval

import (
	"math"
	"testing"

	"assocmine"
	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
	"assocmine/internal/testutil"
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
	m := testutil.Must(matrix.New(4, [][]int32{
		{0, 1, 2}, {0, 1, 2}, {0, 3},
	}))
	g, err := newGroundTruth(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1) at 1; (0,2) and (1,2) at 1/4, above the floor.
	if len(g.Pairs) != 3 {
		t.Errorf("%d pairs, want 3: %+v", len(g.Pairs), g.Pairs)
	}
	for _, p := range g.Pairs {
		if p.Exact < 0.2 {
			t.Errorf("pair %+v below the floor", p)
		}
	}
	if s, ok := g.Sim[pairs.Make(0, 1)]; !ok || s != 1 {
		t.Errorf("Sim[0,1] = %v, %v", s, ok)
	}
}

func TestComputeSCurve(t *testing.T) {
	m := testutil.Must(matrix.New(10, [][]int32{
		{0, 1, 2, 3}, {0, 1, 2, 3}, // sim 1
		{4, 5, 6}, {4, 5, 9}, // sim 0.5
		{7}, {8}, // sim 0
	}))
	g, err := newGroundTruth(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	edges := []float64{0, 0.25, 0.75, 1.0}
	// Algorithm found the sim-1 pair but not the sim-0.5 pair.
	found := []assocmine.Pair{{I: 0, J: 1}}
	sc := computeSCurve(g, found, edges)
	if sc.Actual[2] != 1 || sc.Found[2] != 1 {
		t.Errorf("high bucket: actual %d found %d", sc.Actual[2], sc.Found[2])
	}
	if sc.Actual[1] != 1 || sc.Found[1] != 0 {
		t.Errorf("mid bucket: actual %d found %d", sc.Actual[1], sc.Found[1])
	}
	if sc.ratio(2) != 1 || sc.ratio(1) != 0 {
		t.Errorf("ratios %v %v", sc.ratio(2), sc.ratio(1))
	}
	if sc.ratio(0) != 0 {
		t.Error("empty bucket ratio should be 0")
	}
	if mid := sc.mid(1); math.Abs(mid-0.5) > 1e-12 {
		t.Errorf("Mid(1) = %v", mid)
	}
}

func TestScoreCandidates(t *testing.T) {
	m := testutil.Must(matrix.New(10, [][]int32{
		{0, 1, 2, 3}, {0, 1, 2, 3}, // sim 1: pair (0,1)
		{4, 5, 6}, {4, 5, 9}, // sim 0.5: pair (2,3)
		{7}, {8},
	}))
	g, _ := newGroundTruth(m, 0.1)
	found := []assocmine.Pair{
		{I: 0, J: 1}, // true positive at cutoff 0.8
		{I: 2, J: 3}, // below cutoff: false positive
		{I: 4, J: 5}, // sim 0: false positive
		{I: 0, J: 1}, // duplicate: ignored
	}
	q, err := scoreCandidates(g, found, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if q.TruePos != 1 || q.FalsePos != 2 || q.FalseNeg != 0 {
		t.Errorf("quality = %+v", q)
	}
	if q.fnRate() != 0 {
		t.Errorf("FNRate = %v", q.fnRate())
	}
	// Cutoff below the truth floor must error.
	if _, err := scoreCandidates(g, found, 0.05); err == nil {
		t.Error("cutoff below floor accepted")
	}
	// Missing pair counts as FN.
	q, _ = scoreCandidates(g, nil, 0.8)
	if q.FalseNeg != 1 || q.fnRate() != 1 {
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
	counts, err := histogram(m, defaultEdges())
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

func TestExecuteProducesBothSets(t *testing.T) {
	w := smallWorkloads(t)
	run, err := execute(w.web.Data, assocmine.Config{
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
