package eval

import (
	"fmt"

	"assocmine"
)

// OptimizerExperiment reproduces the Section 4.1 claim that the
// input-sensitive (r, l) optimizer, run against a sampled similarity
// distribution of the real data, lands on small parameters — "in most
// experiments, the optimal value of r was between 5 and 20" — and that
// its error predictions are honoured by an actual M-LSH run.
func OptimizerExperiment(w *Workloads) (Table, error) {
	t := Table{
		ID:    "optimizer",
		Title: "Input-sensitive (r,l) optimizer on the web-log data (Section 4.1)",
		Header: []string{"cutoff", "FN budget", "FP budget", "r", "l", "k=r*l",
			"predicted FN", "predicted FP", "measured FN rate"},
		Notes: []string{"the paper reports optimal r between 5 and 20 in most experiments"},
	}
	cases := []struct {
		cutoff       float64
		maxFN, maxFP float64
	}{
		{0.5, 2, 5000},
		{0.7, 2, 2000},
		{0.7, 10, 10000},
		{0.9, 1, 1000},
	}
	for _, c := range cases {
		p, err := assocmine.OptimizeLSH(w.web.Data, assocmine.LSHBudget{
			Threshold: c.cutoff, SampleColumns: 200, MaxFalseNeg: c.maxFN, MaxFalsePos: c.maxFP, Seed: 33,
		})
		if err != nil {
			return Table{}, fmt.Errorf("optimize at %v: %w", c.cutoff, err)
		}
		// Measure the chosen parameters with an actual run.
		run, err := execute(w.web.Data, minLSHConfig(c.cutoff, p.R, p.L))
		if err != nil {
			return Table{}, err
		}
		q, err := scoreCandidates(w.WebTruth, run.Candidates, c.cutoff)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", c.cutoff),
			fmt.Sprintf("%.0f", c.maxFN),
			fmt.Sprintf("%.0f", c.maxFP),
			fmt.Sprintf("%d", p.R),
			fmt.Sprintf("%d", p.L),
			fmt.Sprintf("%d", p.R*p.L),
			fmt.Sprintf("%.2f", p.PredictedFN),
			fmt.Sprintf("%.0f", p.PredictedFP),
			fmt.Sprintf("%.3f", q.fnRate()),
		})
	}
	return t, nil
}

func minLSHConfig(cutoff float64, r, l int) assocmine.Config {
	return assocmine.Config{
		Algorithm: assocmine.MinLSH,
		Threshold: cutoff,
		K:         r * l,
		R:         r,
		L:         l,
		Seed:      41,
	}
}
